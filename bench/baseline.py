"""Run every workload on ten seeds and record the spread of each metric.

    python3 bench/baseline.py [--first-seed 1]

Appends one set of runs to the "sets" list in bench/baseline.json, so
sets measured at different times sit side by side.

Each untraced run is its own ``run.py --workload W --seed S --trace 0``
process, as the benchmark is normally invoked; one traced run per
workload follows on the first seed. For every end-to-end metric the
output holds its values, median, quartiles and spread (q3 - q1) / median,
next to the bound BENCHMARK.json gives it, plus the machine facts and
each traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT

SEEDS = 10
OUT = BENCH / "baseline.json"


def one_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, BENCH / "run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run([str(a) for a in argv], capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-4000:]}{proc.stderr[-4000:]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    out = {"run_seconds": declared["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in declared["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for metric, m in one_run(name, seed, 0)["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary = {}
        for metric, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                               "bound": bounds[metric], "values": v}
            print(f"{name:11} {metric:14} median {median:10.4f}  spread {(q3 - q1) / median:.3f}"
                  f"  bound {bounds[metric]}", flush=True)
        traced = one_run(name, seeds[0], 1)["metrics"]
        record = json.loads((ROOT / ".bench_work" / f"{name}-seed{seeds[0]}-trace1.json").read_text())
        out["workloads"][name] = {"facts": record["facts"], "end_to_end": summary,
                                  "per_layer": {k: m["value"] for k, m in traced.items()}}
    sets = json.loads(OUT.read_text())["sets"] if OUT.exists() else []
    OUT.write_text(json.dumps({"sets": sets + [out]}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
