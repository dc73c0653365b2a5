"""Alternating runs of two checkouts: CLI jobs, or whole benchmark workloads.

    python3 tools/pairs.py PARENT CHANGE --pairs 10 \\
        --job "estimate --random 20:1 --m 4000000 --seed 5" \\
        --job "classical --random 20:1 --m 4000000 --seed 5"
    python3 tools/pairs.py PARENT CHANGE --pairs 10 --first-seed 101 \\
        --bench exact-n24 --bench sample-n20

PARENT and CHANGE are checkout roots, each with ``src/bvinfluence``. Each
job is one CLI argv, run as ``python -m bvinfluence.cli <argv>`` with the
checkout's ``src`` on ``PYTHONPATH``. The two checkouts' paths must have
the same length: a longer path alone moves a job's peak RSS by about
0.1 MiB.

Every child runs with one BLAS thread and with its side's own bytecode
cache (``PYTHONPYCACHEPREFIX`` in a temporary directory, written even
under ``PYTHONDONTWRITEBYTECODE``). One untimed warm-up run per side and
job fills that cache, so neither side pays for compiling stale or missing
``.pyc`` files. Then each job runs ``--pairs`` times per side, the two
sides alternating and the first side flipping each pair. Each side's
children are started by its own ``bench/spawner.py`` process, which takes
wall time around each child and peak RSS from ``os.wait4``; that file
says why a child's peak would otherwise read this script's own, which
grows as it parses large reports.

Each child must exit with status 0, and both sides must print the same
``results`` (a JSON report's, or a CSV report's whole text). The last
line of standard output is one JSON object: per job, the median, low and
high wall seconds and peak MiB of each side, and in how many pairs the
change was lower. The exit code is 1 when any run failed or the two
sides' results differed.

With ``--bench``, each named workload runs instead as each checkout's own
``bench/run.py --workload W --seed k --trace 0`` (``--seconds`` passed
on when given), one seed per pair from ``--first-seed`` on, the two sides
alternating and the first side flipping each seed, with each side's own
bytecode cache (``bench/run.py`` gives its children one BLAS thread
itself). A workload has no warm-up run: each of its timings is a
median over many children.
Every run must report ``correct``. Per workload and end-to-end metric,
the last line gives each side's median, interquartile range, low and
high, and in how many seeds the change was lower.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SPAWNER = Path(__file__).resolve().parents[1] / "bench" / "spawner.py"
SIDES = ("parent", "change")  # names of equal length: each is a cache directory
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env(root: Path, cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(dict.fromkeys(THREADS, "1"))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def _spawner(env: dict) -> subprocess.Popen:
    """A ``bench/spawner.py`` process with ``env``, which its children inherit."""
    return subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env)


def _run(argv: list[str], spawner: subprocess.Popen, scratch: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MiB and a digest of the results of one CLI child."""
    out, err = scratch / "out", scratch / "err"
    request = {"argv": [sys.executable, "-m", "bvinfluence.cli", *argv], "stdout": str(out), "stderr": str(err)}
    spawner.stdin.write(json.dumps(request) + "\n")
    spawner.stdin.flush()
    got = json.loads(spawner.stdout.readline())
    if got["code"] != 0:
        raise RuntimeError(f"exit status {got['code']}: {err.read_text().strip()[-500:]}")
    text = out.read_text()
    try:
        results = json.dumps(json.loads(text)["results"], sort_keys=True)
    except ValueError:  # a CSV report carries no timing: its whole text is its results
        results = text
    return got["wall"], got["maxrss_kib"] / 1024, hashlib.sha256(results.encode()).hexdigest()


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "low": min(values), "high": max(values)}


def _roots(parent: Path, change: Path, needs: str) -> dict:
    """The two checkout roots by side, each checked to hold ``needs`` and to have a path of the same length."""
    roots = dict(zip(SIDES, (parent.resolve(), change.resolve())))
    if len(str(roots["parent"])) != len(str(roots["change"])):
        raise ValueError(f"checkout paths differ in length: {roots['parent']} and {roots['change']}")
    for root in roots.values():
        if not (root / needs).exists():
            raise ValueError(f"no {needs} under {root}")
    return roots


def compare(parent: Path, change: Path, jobs: list[str], pairs: int) -> dict:
    """Run each job ``pairs`` times per side, alternating; see the module docstring."""
    roots = _roots(parent, change, "src/bvinfluence")
    report = {"parent": str(roots["parent"]), "change": str(roots["change"]), "pairs": pairs, "jobs": [], "errors": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp, contextlib.ExitStack() as stack:
        scratch = Path(tmp)
        spawners = {side: stack.enter_context(_spawner(_env(roots[side], scratch / side))) for side in SIDES}
        for job in jobs:
            argv = shlex.split(job)
            runs = {side: [] for side in SIDES}
            try:
                for side in SIDES:
                    _run(argv, spawners[side], scratch)  # warm-up: fills the side's bytecode cache
                for k in range(pairs):
                    for side in SIDES[::-1] if k % 2 else SIDES:
                        runs[side].append(_run(argv, spawners[side], scratch))
            except RuntimeError as exc:
                report["errors"].append(f"{job}: {exc}")
                continue
            same = all(p[2] == c[2] for p, c in zip(runs["parent"], runs["change"]))
            if not same:
                report["errors"].append(f"{job}: parent and change printed different results")
            entry = {"job": job, "same_results": same}
            for metric, index in (("wall_s", 0), ("peak_rss_mib", 1)):
                values = {side: [run[index] for run in runs[side]] for side in SIDES}
                entry[metric] = {side: _summary(values[side]) for side in SIDES}
                entry[metric]["change_lower"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
            report["jobs"].append(entry)
    return report


def _bench(root: Path, workload: str, seed: int, seconds: float | None, env: dict) -> dict:
    """The end-to-end metrics of one ``bench/run.py --trace 0`` run of ``workload`` in the checkout ``root``."""
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode or not result.get("correct"):
        raise RuntimeError(f"seed {seed}: exit status {done.returncode}: {(done.stderr or done.stdout).strip()[-500:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _spread(values: list[float]) -> dict:
    """Median, interquartile range (inclusive quartiles), low and high."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "iqr": q3 - q1, "low": min(values), "high": max(values)}


def compare_bench(parent: Path, change: Path, workloads: list[str], pairs: int, first_seed: int,
                  seconds: float | None = None) -> dict:
    """Run each workload once per side and seed, alternating; see the module docstring."""
    roots = _roots(parent, change, "bench/run.py")
    seeds = list(range(first_seed, first_seed + pairs))
    report = {"parent": str(roots["parent"]), "change": str(roots["change"]), "pairs": pairs, "seeds": seeds,
              "seconds": seconds, "workloads": [], "errors": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        envs = {side: _env(roots[side], Path(tmp) / side) for side in SIDES}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            try:
                for k, seed in enumerate(seeds):
                    for side in SIDES[::-1] if k % 2 else SIDES:
                        runs[side].append(_bench(roots[side], workload, seed, seconds, envs[side]))
            except RuntimeError as exc:
                report["errors"].append(f"{workload}: {exc}")
                continue
            metrics = {}
            for name in runs["parent"][0]:
                values = {side: [run[name] for run in runs[side]] for side in SIDES}
                metrics[name] = {side: _spread(values[side]) for side in SIDES}
                metrics[name]["change_lower"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
            report["workloads"].append({"workload": workload, "metrics": metrics})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    work = parser.add_mutually_exclusive_group(required=True)
    work.add_argument("--job", action="append", help="one CLI argv, quoted; repeatable")
    work.add_argument("--bench", action="append", metavar="WORKLOAD", help="one bench/run.py workload; repeatable")
    parser.add_argument("--pairs", type=int, default=10, help="timed runs per side and job, or seeds (default 10)")
    parser.add_argument("--first-seed", type=int, default=1, help="with --bench: the first seed (default 1)")
    parser.add_argument("--seconds", type=float, help="with --bench: bench/run.py's --seconds")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        if args.bench:
            report = compare_bench(args.parent, args.change, args.bench, args.pairs, args.first_seed, args.seconds)
        else:
            report = compare(args.parent, args.change, args.job, args.pairs)
    except ValueError as exc:
        print(f"pairs: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
