"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads fit stream cli --seeds 0-9 [--trace 0] [--out FILE]

Runs one workload and seed at a time, from the checkout root, with the
`run_seconds` of BENCHMARK.json unless --seconds is given. For every metric
it prints the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median; an end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is marked. --out writes the same as
JSON, with every run's values and the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        table = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else values * 3)
            spread = (q3 - q1) / med if med else float("nan")
            table[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": values}
            bound = bounds.get(name) if args.trace == 0 else None
            flag = "" if bound is None or spread <= bound else "  > bound"
            print(f"  {name:38s} median {med:12.6g} {first['unit']:9s} "
                  f"spread {spread:7.2%}" + (f" (bound {bound:.0%}){flag}" if bound else ""))
        summary[workload] = {"runs": [{k: r[k] for k in ("seed", "correct", "attempted",
                                                         "failed")} for r in runs],
                             "metrics": table}

    if args.out:
        stamp = json.loads((ROOT / "bench" / "out" /
                            f"BENCH_{args.workloads[0]}_seed{args.seeds[-1]}"
                            f"_trace{args.trace}.json").read_text())["environment"]
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "seeds": args.seeds, "environment": stamp,
                                        "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
