"""Benchmark entry point: ``python3 tzbench/run.py --workload W --seed N``.

Run from the repository root.  It builds and caches the native kernel,
runs one workload for ``--seconds`` of measurement, checks every answer,
and prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around every call into a layer and prints
the per-layer metrics instead.  A failed answer check exits non-zero
without printing a result.  See ``tzbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

WORKLOADS = ("route-bulk", "serve-zipf", "churn-update")


def bootstrap() -> None:
    """Make ``repro`` importable from ``src/`` and keep writes in the checkout.

    Exits with status 2 when the checkout holds no ``src/repro``.  Sets
    single-threaded BLAS, a checkout-local kernel cache and temp directory
    before numpy or ``repro`` are imported; the daemon subprocess inherits
    all three.
    """
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"tzbench: no src/repro under {root}; run from the repository root\n"
        )
        raise SystemExit(2)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(root / "src"), str(here)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["REPRO_KERNEL_CACHE"] = str(root / ".bench_build" / "kernels")
    tmp = root / ".bench_build" / "tmp"  # the C compiler's scratch files
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv):
    """The command line of one benchmark run."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input (for the benchmark's own test)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="flip one answer before checking it (the checks must fail)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload; returns the process exit status."""
    args = parse_args(argv)
    bootstrap()
    import common
    from repro import kernels

    if not kernels.available():
        sys.stderr.write(f"tzbench: native kernel unavailable: "
                         f"{kernels.native_error()}\n")
        return 1
    module = __import__(args.workload.replace("-", "_"))
    tracer = common.Tracer(bool(args.trace))
    fingerprint = common.fingerprint()
    print("# fingerprint " + json.dumps(fingerprint), flush=True)
    try:
        outcome = module.run(
            seed=args.seed, seconds=args.seconds, tracer=tracer,
            tiny=args.size == "tiny", corrupt=args.corrupt,
        )
    except common.BenchFailure as exc:
        sys.stderr.write(f"tzbench: check failed: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    names = common.PER_LAYER if args.trace else common.END_TO_END
    missing = [n for n in names if n not in outcome.metrics]
    if missing:
        sys.stderr.write(f"tzbench: workload did not measure {missing}\n")
        return 1
    metrics = {n: outcome.metrics[n] for n in names}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "fingerprint": fingerprint, "samples": outcome.samples,
        "setup_seconds": outcome.setup_seconds,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics,
    }
    records = common.WORK_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(records / f"{stem}.spans.jsonl")
    common.emit(True, outcome.attempted, outcome.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
