"""Run one workload several times and print each metric's quartiles.

    python3 lshbench/spread.py --workload paper-dense --seeds 1-10

Each run is a separate untraced `run.py` process with its own seed, one
after the other, for BENCHMARK.json's `run_seconds`. For every metric the command prints the median, the quartiles as
`statistics.quantiles(n=4)` gives them, and the spread (the distance
between the quartiles as a share of the median) beside the metric's bound
from BENCHMARK.json. The runs' results are saved to
`.lshbench/spread/<workload>-seeds<first>-<last>.json`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              flush=True)

    print(f"{'metric':36} {'unit':10} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        bound = bounds.get(name)
        print(f"{name:36} {first['unit']:10} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread(values):7.3f} {'' if bound is None else bound:>6}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share: {shares}; correct: {all(r['correct'] for r in runs)}")

    out = ROOT / ".lshbench" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seeds{seeds[0]}-{seeds[-1]}.json"
     ).write_text(json.dumps({"seeds": seeds, "seconds": seconds, "runs": runs},
                             indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
