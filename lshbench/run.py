"""lshauth benchmark: one workload per process, one thread, closed loop.

    python3 lshbench/run.py --workload paper-dense --seed 1 --seconds 20 --trace 0

Run from the repository root. lshauth is imported from ./src (no install
needed). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end figures; with ``--trace 1`` a separate, traced
run records spans around every timed call and the metrics are per layer.
The full result (with provenance and, when traced, the spans) is written
to ``.lshbench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".lshbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cores": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    # the run writes only under .lshbench/: no bytecode next to the sources
    sys.dont_write_bytecode = True
    if not (src / "lshauth" / "__init__.py").is_file():
        print(f"error: lshauth sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        print("error: need 0 <= seed < 2**63 and seconds > 0", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        metrics, tally, info, spans = workloads.run(args.workload, args.seed, args.seconds,
                                             bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, info=info,
                  provenance=provenance())
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (results / f"{tag}-spans.json").write_text(json.dumps(spans))
    for msg in tally.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {info['rounds']} rounds, accuracy {info['accuracy']}, "
          f"mean candidates {info['mean_candidates']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
