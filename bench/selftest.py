"""Self-test of the benchmark: python3 bench/selftest.py

1. A tiny-n traced run of every workload, whose untraced, span and
   tracemalloc passes all check every job, passes every check.
2. Each corrupted report fails its check, since a check that cannot fail
   verifies nothing: one flipped influence fraction, one outcome outside
   the support, one dropped CSV row, one variable dropped from an
   influential listing, one wrong learner label.
3. BENCHMARK.json names workloads and metrics this code reports.

Prints one line per test and exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import numpy as np

import checks
import run
import spans
from workloads import WORKLOADS, build

SEED = 8  # its tiny render table has zero coefficients, so an in-range outcome can miss the support


def tiny_runs() -> list[str]:
    problems = []
    for name in WORKLOADS:
        record = run.run_workload(name, SEED, 0, True, tiny=True)
        ok = record["failed"] == 0 and record["attempted"] >= 3 * len(record["slots"])
        print(f"{'ok  ' if ok else 'FAIL'} tiny {name}: {record['attempted']} jobs, {record['failed']} failed")
        if not ok:
            problems.append(f"tiny {name}: {record['errors']}")
    return problems


def _flip_influence(text: str, ref) -> str:
    report = json.loads(text)
    entry = report["results"]["influences"][0]["influence"]
    value = Fraction(entry["fraction"])
    step = Fraction(1, 1 << ref.n)
    entry["fraction"] = str(value - step if value == 1 else value + step)
    return json.dumps(report)


def _outcome_outside_support(text: str, ref) -> str:
    report = json.loads(text)
    y = int(np.flatnonzero(ref.spectrum == 0)[0])
    report["results"]["outcomes"][0] = y
    report["results"]["bits"][0] = format(y, f"0{ref.n}b")[::-1]
    return json.dumps(report)


def _drop_csv_row(text: str, ref) -> str:
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    return "".join(lines)


def _drop_listed_variable(text: str, ref) -> str:
    report = json.loads(text)
    report["results"]["variables"].pop()
    return json.dumps(report)


def _wrong_label(text: str, ref) -> str:
    report = json.loads(text)
    entry = report["results"]["classes"][0]
    entry["class"] = "absent" if entry["class"] != "absent" else "linear"
    return json.dumps(report)


CORRUPTIONS = (
    ("exact-n24", "influence_s", "flipped influence fraction", _flip_influence),
    ("render-n20", "bv_sample_json_s", "outcome outside the support", _outcome_outside_support),
    ("render-n20", "spectrum_csv_s", "dropped CSV row", _drop_csv_row),
    ("sample-n20", "list_influential_s", "listed variable dropped", _drop_listed_variable),
    ("sample-n20", "learn3_s", "wrong learner label", _wrong_label),
)


def corrupted_reports() -> list[str]:
    problems = []
    for name, metric, what, corrupt in CORRUPTIONS:
        workload = build(name, SEED, tiny=True)
        workdir = run.WORK / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            with run.Spawner() as spawner:
                bench = run.WorkloadRun(workload, SEED, True, workdir, spawner)
                bench.setup()
                k = workload.slots.index(metric)
                clean = bench.run_job(k, {}).errors
                text = (workdir / "out.txt").read_text()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        job = workload.jobs[k]
        ref = bench.refs[job.function.label]
        caught = checks.check_report(job, corrupt(text, ref), ref, {})
        ok = not clean and bool(caught)
        print(f"{'ok  ' if ok else 'FAIL'} {what}: clean report {clean or 'passes'}; corrupted one fails with {caught}")
        if not ok:
            problems.append(what)
    return problems


def benchmark_file() -> list[str]:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        # BENCHMARK.json lists the workloads that hold its bounds, a subset of WORKLOADS.
        "workloads": [(w["name"], build(w["name"], 0).why) for w in declared["workloads"] if w["name"] in WORKLOADS],
        "end_to_end": list(run.END_TO_END),
        "per_layer": list(spans.PER_LAYER),
    }
    got = {
        "workloads": [(w["name"], w["why"]) for w in declared["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in declared["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in declared["per_layer"]],
    }
    problems = [key for key in want if want[key] != got[key]]
    print(f"{'ok  ' if not problems else 'FAIL'} BENCHMARK.json matches the code" +
          (f" except {problems}" if problems else ""))
    return problems


def main() -> int:
    problems = tiny_runs() + corrupted_reports() + benchmark_file()
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
