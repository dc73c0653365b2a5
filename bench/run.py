"""Benchmark of bvinfluence: CLI wall time, peak RSS and per-layer spans.

    python3 bench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 bench/run.py            # every workload, traced

A closed loop with one client: one child process at a time, each timed
from outside by spawner.py, its peak RSS taken from os.wait4. Each CLI
job runs once, then the jobs share the rest of --seconds about equally
(see WorkloadRun.measure), and every timing is the median over a job's
runs; the library workload repeats its one child while another fits. --seconds defaults to BENCHMARK.json's
run_seconds. --trace 1 then runs the job list twice more: once with
spans, and once under tracemalloc for the peak figures, which is not
timed. Its JSON line carries the per-layer metrics, that of --trace 0 the
end-to-end ones.

Every job's output is checked against reference answers that the
benchmark computes from its own generated inputs, without the package
and outside every timed interval. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. The exit code is 0
when every check passed, 1 when any failed, 2 when the benchmark could not
run (for instance, no package under src/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS, Workload, build

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
JOB_SLOTS = 4
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")) + tuple(
    (f"job{k}_s", "s") for k in range(1, JOB_SLOTS + 1))
UNITS = dict(END_TO_END) | dict(spans.PER_LAYER)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Child:
    wall: float
    rss_mib: float
    code: int
    stderr: str


@dataclass
class JobResult:
    metric: str
    seconds: float
    errors: list[str]
    rss_mib: float = 0.0
    out_bytes: int = 0
    calls: int = 0
    cost: float = 0.0  # seconds the run spent on this job, checks included


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One client, one compute thread: numpy's BLAS pool is not used here.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Spawner:
    """Runs children one at a time through spawner.py, which times them.

    spawner.py says why: a child's ru_maxrss would otherwise include this
    process's own peak. Use as a context manager; leaving it on an error
    kills the helper and whatever child it is running.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env(),
                                     start_new_session=True)

    def run(self, argv: list, stdout: Path) -> Child:
        err = stdout.with_suffix(".err")
        request = {"argv": [str(a) for a in argv], "stdout": str(stdout), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process ended early")
        got = json.loads(reply)
        return Child(got["wall"], got["maxrss_kib"] / 1024, got["code"], err.read_text(errors="replace")[-2000:])

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.proc.stdin.close()
        else:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


class WorkloadRun:
    """One run of one workload: its inputs, reference answers and children."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, workdir: Path, spawner: Spawner):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.workdir, self.spawner = workdir, spawner
        self.refs = {f.label: checks.Reference(f) for f in workload.functions}

    def _child(self, mode: str, *argv) -> list:
        return [sys.executable, BENCH / "child.py", mode, *argv]

    def _sized(self) -> list:
        return (["--workload", self.workload.name, "--seed", self.seed, "--dir", self.workdir]
                + (["--tiny"] if self.tiny else []))

    def _tracing(self, mode: str | None) -> list:
        if mode is None:
            return []
        return ["--spans", self.workdir / "spans.json"] + (["--memory"] if mode == "memory" else [])

    def _load_spans(self, into: list[dict]) -> None:
        offset = len(into)
        for s in json.loads((self.workdir / "spans.json").read_text()):
            if s["parent"] is not None:
                s["parent"] += offset
            into.append(s)

    def setup(self) -> list[float]:
        """Set-up wall times; the inputs are then on disk for the jobs."""
        for f in self.workload.functions:
            if not f.planted:
                np.save(self.workdir / f"{f.label}.npy", self.refs[f.label].bits)
        walls = []
        for _ in range(SETUP_REPEATS):
            child = self.spawner.run(self._child("setup", *self._sized()), self.workdir / "setup.out")
            if child.code != 0:
                raise BenchError(f"set-up failed with exit code {child.code}:\n{child.stderr}")
            walls.append(child.wall)
        return walls

    def run_job(self, k: int, twins: dict, mode: str | None = None, spans_into: list | None = None) -> JobResult:
        """CLI job k in its own child, then its output check (not timed)."""
        job = self.workload.jobs[k]
        begun = time.perf_counter()
        out, argv = self.workdir / "out.txt", job.argv(str(self.workdir))
        out.unlink(missing_ok=True)
        if mode is None:
            child = self.spawner.run([sys.executable, "-m", "bvinfluence.cli", *argv], out)
        else:
            child = self.spawner.run(self._child("cli", "--out", out, "--job", k, *self._tracing(mode), "--", *argv),
                                     self.workdir / "child.out")
        text = out.read_text(errors="replace") if out.exists() else ""
        if child.code != 0:
            errors = [f"exit code {child.code}: {child.stderr}"]
        else:
            errors = checks.check_report(job, text, self.refs[job.function.label], twins)
            if mode:
                self._load_spans(spans_into)
        return JobResult(job.metric, child.wall, errors, child.rss_mib, out_bytes=len(text.encode()),
                         cost=time.perf_counter() - begun)

    def run_lib(self, mode: str | None = None, spans_into: list | None = None) -> tuple[Child, list[JobResult]]:
        """The library workload: one child runs every group; each group is a job."""
        out = self.workdir / "out.txt"
        out.unlink(missing_ok=True)
        child = self.spawner.run(self._child("lib", *self._sized(), "--out", out, *self._tracing(mode)),
                                 self.workdir / "child.out")
        groups = self.workload.lib
        try:
            if child.code != 0:
                raise ValueError(f"exit code {child.code}: {child.stderr}")
            results = json.loads(out.read_text())["groups"]
            jobs = [JobResult(g.metric, got["seconds"], checks.check_lib(got, g, self.refs), child.rss_mib,
                              calls=got["calls"]) for g, got in zip(groups, results, strict=True)]
        except (ValueError, KeyError, TypeError) as exc:
            return child, [JobResult(g.metric, child.wall, [str(exc)], child.rss_mib) for g in groups]
        if mode:
            self._load_spans(spans_into)
        return child, jobs

    def run_pass(self, mode: str) -> tuple[float, list[JobResult], list[dict]]:
        """Every job once: (wall seconds, job results, spans)."""
        spans_into: list[dict] = []
        if self.workload.lib:
            child, jobs = self.run_lib(mode, spans_into)
            return child.wall, jobs, spans_into
        twins: dict = {}
        jobs = [self.run_job(k, twins, mode, spans_into) for k in range(len(self.workload.jobs))]
        return sum(j.seconds for j in jobs), jobs, spans_into

    def measure(self, seconds: float) -> tuple[list[float], list[list[JobResult]]]:
        """Untraced runs until ``seconds`` is spent: (list-wall samples, samples per job).

        Every CLI job runs once, in list order. After that the next job is
        the one that has taken the least time so far among those whose
        last run still fits in the time left, so each job gets about the
        same share of the run: a 0.6 s job gets several samples where
        verify at n=24 gets one. The library workload repeats its single
        child while another one fits.
        """
        started = time.perf_counter()
        if self.workload.lib:
            walls, per_job = [], [[] for _ in self.workload.lib]
            while True:
                begun = time.perf_counter()
                child, jobs = self.run_lib()
                walls.append(child.wall)
                for samples, job in zip(per_job, jobs):
                    samples.append(job)
                if time.perf_counter() - started + (time.perf_counter() - begun) > seconds:
                    return walls, per_job
        twins: dict = {}
        per_job = [[self.run_job(k, twins)] for k in range(len(self.workload.jobs))]
        while True:
            left = seconds - (time.perf_counter() - started)
            fits = [k for k, samples in enumerate(per_job) if samples[-1].cost <= left]
            if not fits:
                return [], per_job
            k = min(fits, key=lambda k: sum(j.cost for j in per_job[k]))
            per_job[k].append(self.run_job(k, twins))

    def traced(self, record: dict, untraced_wall: float) -> tuple[dict, list[JobResult]]:
        """Span and tracemalloc passes; per-layer metrics of the span pass.

        ``untraced_wall`` is the run's untraced wall_s, which the span
        pass's wall is compared with for trace.overhead_s.
        """
        passes = {mode: self.run_pass(mode) for mode in ("time", "memory")}
        wall, timed_jobs, timed_spans = passes["time"]
        metrics = spans.per_layer(timed_spans, passes["memory"][2], sum(j.out_bytes for j in timed_jobs),
                                  wall - untraced_wall)
        record["attribution"] = {str(k): v for k, v in spans.attribution(timed_spans).items()}
        record["walsh_calls_per_table"] = {str(k): v for k, v in spans.calls_per_table(timed_spans).items()}
        record["traced_jobs"] = [(j.metric, j.seconds) for j in timed_jobs]
        record["spans"] = {"time": timed_spans, "memory": passes["memory"][2]}
        return metrics, [j for _, jobs, _ in passes.values() for j in jobs]

    def untraced(self, seconds: float, record: dict) -> tuple[dict, list[JobResult]]:
        """End-to-end metrics, every timing a median over its samples."""
        walls, per_job = self.measure(seconds)
        medians = [statistics.median(j.seconds for j in samples) for samples in per_job]
        jobs = [j for samples in per_job for j in samples]
        record["samples"] = [len(samples) for samples in per_job]
        record["job_seconds"] = [[j.seconds for j in samples] for samples in per_job]
        if self.workload.lib:
            record["lib_calls_per_s"] = sum(j.calls for j in jobs) / sum(j.seconds for j in jobs)
        metrics = {
            "setup_s": statistics.median(record["setup_walls"]),
            # The job list's time: the library child's wall, or the sum of
            # the CLI jobs' medians.
            "wall_s": statistics.median(walls) if walls else sum(medians),
            "peak_rss_mib": max(j.rss_mib for j in jobs),
            **{f"job{k}_s": v for k, v in enumerate(medians, start=1)},
        }
        return metrics, jobs


def machine_facts(workload: Workload) -> dict:
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or 0) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    sizes = sorted({f.n for f in workload.functions})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "memory_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "llc_mib": llc / 2**20 if llc else None,
        "arrays": [{"n": n, "table_mib": 2**n / 2**20, "int64_mib": 8 * 2**n / 2**20,
                    "int64_over_llc": 8 * 2**n / llc if llc else None} for n in sizes],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run and check one workload; returns the run's record, also kept in .bench_work/.

    The record's "metrics" are the end-to-end ones; a traced run adds
    "per_layer".
    """
    workload = build(name, seed, tiny)
    stem = f"{name}-seed{seed}" + ("-tiny" if tiny else "")
    workdir = WORK / stem
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "trace": int(trace), "why": workload.why,
              "slots": list(workload.slots), "facts": machine_facts(workload)}
    try:
        with Spawner() as spawner:
            bench = WorkloadRun(workload, seed, tiny, workdir, spawner)
            record["setup_walls"] = bench.setup()
            for ref in bench.refs.values():  # reference answers, outside every timed interval
                ref.influences
            metrics, jobs = bench.untraced(seconds, record)
            if trace:
                layers, traced_jobs = bench.traced(record, metrics["wall_s"])
                jobs += traced_jobs
                record["per_layer"] = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [j for j in jobs if j.errors]
    record.update(
        attempted=len(jobs),
        failed=len(failed),
        errors={j.metric: j.errors[:5] for j in failed},
        metrics={k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    )
    spans_of_run = record.pop("spans", None)
    if spans_of_run is not None:
        (WORK / f"{stem}-spans.json").write_text(json.dumps(spans_of_run))
    (WORK / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(record: dict) -> None:
    facts = record["facts"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"({record['attempted']} jobs run, {record['failed']} failed)")
    print(f"   why: {record['why']}")
    print(f"   machine: nproc {facts['nproc']}, Python {facts['python']}, numpy {facts['numpy']}, "
          f"memory {facts['memory_gib']:.1f} GiB, LLC {_fmt(facts['llc_mib'])} MiB")
    for a in facts["arrays"]:
        print(f"   n={a['n']}: table {_fmt(a['table_mib'])} MiB, int64 array {_fmt(a['int64_mib'])} MiB"
              f" ({_fmt(a['int64_over_llc'])} x LLC)")
    print(f"   {'metric':44} {'value':>14} unit")
    slots = {f"job{k}_s": (slot, count) for k, (slot, count) in enumerate(zip(record["slots"], record["samples"]), 1)}
    for name, m in record["metrics"].items():
        label = name
        if name in slots:
            slot, count = slots[name]
            label = f"{name} ({slot}, median of {count})"
        elif name == "setup_s":
            label = f"setup_s (median of {len(record['setup_walls'])})"
        print(f"   {label:44} {_fmt(m['value']):>14} {m['unit']}")
    print(f"   {'failed_ratio':44} {_fmt(record['failed'] / record['attempted']):>14} 1")
    if "lib_calls_per_s" in record:
        print(f"   {'lib_calls_per_s':44} {_fmt(record['lib_calls_per_s']):>14} 1/s")
    if record["trace"]:
        for name, m in record["per_layer"].items():
            print(f"   {name:44} {_fmt(m['value']):>14} {m['unit']}")
        print("   where each traced job's time went (self seconds per layer, share of the job's wall;"
              " the rest is interpreter start-up and imports):")
        for k, (metric, wall) in enumerate(record["traced_jobs"]):
            layers = record["attribution"].get(str(k), {})
            parts = ", ".join(f"{layer} {s:.3f} ({s / wall:.0%})"
                              for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]) if s >= 0.0005)
            per_table = record["walsh_calls_per_table"].get(str(k))
            spectra = f"; walsh_spectrum calls per table {per_table:g}" if per_table else ""
            print(f"     {metric} {wall:.3f} s: {parts}{spectra}")
    for metric, errors in record["errors"].items():
        for e in errors:
            print(f"   FAILED {metric}: {e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Let a TERM unwind like an interrupt, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.workload == "all":
        names, trace = list(WORKLOADS), 1 if args.trace is None else args.trace
    else:
        names, trace = [args.workload], args.trace or 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, seconds, bool(trace)))
            print_report(records[-1])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["per_layer" if trace else "metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in (r["metrics"] | r.get("per_layer", {})).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
