"""Spans around bvinfluence's public functions, recorded from outside the package.

``install`` replaces each function in ``TARGETS`` with a wrapper at every
name the package binds it to (``walsh_spectrum`` is bound in ``spectrum``,
``bvsim``, ``estimate`` and ``cli``), so no file under ``src/`` changes.
A span holds its name, start, end, parent span and job id, plus counts
taken at the same boundary. Spans stay in memory until the child writes
them out. ``per_layer`` turns the spans of one traced pass into the
per-layer metrics; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import tracemalloc

TARGETS = (
    "boolfn.to_truth_table",
    "cli.read_table",
    "cli.run",
    "spectrum.fwht",
    "spectrum.walsh_spectrum",
    "spectrum.influence_vector",
    "spectrum.correlation_fast",
    "spectrum.verify_identities",
    "bvsim.bv_distribution",
    "bvsim.BvDistribution.cumulative",
    "bvsim.bv_sample",
    "bvsim.SampleBatch.ones_counts",
    "estimate.algorithm1",
    "estimate.influential_list",
    "estimate.classical_estimate",
    "learn.algorithm2",
    "learn.algorithm3",
)

# Which layer a span's self time belongs to, for the per-job attribution.
LAYERS = {"boolfn.to_truth_table": "tabulate", "cli.read_table": "tabulate", "cli.run": "cli"}

PER_LAYER = (
    ("boolfn.to_truth_table.s", "s"),
    ("boolfn.to_truth_table.monomials", "count"),
    ("cli.read_table.s", "s"),
    ("cli.read_table.bytes", "bytes"),
    ("spectrum.walsh_spectrum.s", "s"),
    ("spectrum.walsh_spectrum.calls", "count"),
    ("spectrum.walsh_spectrum.calls_per_table", "1"),
    ("spectrum.walsh_spectrum.peak_mib", "MiB"),
    ("spectrum.influence_vector.s", "s"),
    ("spectrum.influence_vector.self_s", "s"),
    ("spectrum.correlation_fast.s", "s"),
    ("spectrum.verify_identities.s", "s"),
    ("spectrum.verify_identities.self_s", "s"),
    ("spectrum.verify_identities.peak_mib", "MiB"),
    ("spectrum.fwht.bytes_computed", "bytes"),
    ("bvsim.bv_distribution.s", "s"),
    ("bvsim.bv_distribution.peak_mib", "MiB"),
    ("bvsim.bv_sample.s", "s"),
    ("bvsim.bv_sample.draws", "count"),
    ("bvsim.bv_sample.draws_per_s", "1/s"),
    ("bvsim.bv_sample.peak_mib", "MiB"),
    ("bvsim.SampleBatch.ones_counts.s", "s"),
    ("estimate.algorithm1.s", "s"),
    ("estimate.algorithm1.self_s", "s"),
    ("estimate.algorithm1.calls", "count"),
    ("estimate.influential_list.s", "s"),
    ("estimate.classical_estimate.s", "s"),
    ("estimate.classical_estimate.oracle_calls", "count"),
    ("estimate.classical_estimate.oracle_calls_per_s", "1/s"),
    ("learn.algorithm2.s", "s"),
    ("learn.algorithm3.s", "s"),
    ("learn.self_s", "s"),
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("cli.out_mib_per_s", "MiB/s"),
    ("trace.overhead_s", "s"),
)


def _counts(name: str, args, result) -> dict:
    """Work done by one call, read at its boundary."""
    if name == "boolfn.to_truth_table":
        return {"monomials": len(args[0].monomials)}
    if name == "cli.read_table":
        return {"bytes": os.path.getsize(args[0])}
    if name == "spectrum.fwht":
        # Computed, not measured: each of the log2(size) butterfly stages
        # reads and writes every int64 word once.
        return {"bytes": 16 * result.size * int(math.log2(result.size))}
    if name == "spectrum.walsh_spectrum":
        return {"table": id(args[0])}
    if name == "bvsim.bv_sample":
        return {"draws": result.m}
    if name == "estimate.classical_estimate":
        return {"oracle_calls": result.oracle_calls}
    return {}


class Recorder:
    """Collects spans; with ``memory`` it also takes each span's tracemalloc peak."""

    def __init__(self, memory: bool = False):
        self.spans: list[dict] = []
        self.job = None
        self.memory = memory
        self._open: list[int] = []
        self._high: list[int] = []  # highest traced bytes seen inside each open span

    def call(self, name: str, fn, args, kwargs):
        span = {"name": name, "parent": self._open[-1] if self._open else None, "job": self.job}
        self._open.append(len(self.spans))
        self.spans.append(span)
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._high:
                self._high[-1] = max(self._high[-1], peak)
            tracemalloc.reset_peak()
            self._high.append(base)
        span["start"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter_ns()
            self._open.pop()
            if self.memory:
                high = max(self._high.pop(), tracemalloc.get_traced_memory()[1])
                span["peak_bytes"] = high - base
                if self._high:
                    self._high[-1] = max(self._high[-1], high)
        span.update(_counts(name, args, result))
        return result


def install(recorder: Recorder) -> None:
    """Wrap every target at each name the package binds it to."""
    package = importlib.import_module("bvinfluence")
    modules = [package] + [importlib.import_module(f"bvinfluence.{m}")
                           for m in ("boolfn", "spectrum", "bvsim", "estimate", "learn", "cli")]
    for name in TARGETS:
        home, _, attr = name.partition(".")
        module = importlib.import_module(f"bvinfluence.{home}")
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            setattr(cls, method, _wrap(recorder, name, cls.__dict__[method]))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(recorder, name, original)
        for bound in modules:
            for key, value in list(vars(bound).items()):
                if value is original:
                    setattr(bound, key, wrapper)


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)
    return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration in seconds minus that of its direct children."""
    own = [(s["end"] - s["start"]) / 1e9 for s in spans]
    for s, d in zip(spans, list(own)):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    return own


def layer_of(name: str) -> str:
    return LAYERS.get(name, name.partition(".")[0])


def per_layer(spans: list[dict], memory_spans: list[dict], out_bytes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in PER_LAYER.

    ``spans`` come from the timed pass and ``memory_spans`` from the
    tracemalloc pass, whose timings are not used.
    """
    own = self_times(spans)
    dur = [(s["end"] - s["start"]) / 1e9 for s in spans]

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name, values=dur):
        return sum(values[i] for i in pick(name))

    def count(name, key):
        return sum(spans[i][key] for i in pick(name))

    def peak(*names):
        return max((s["peak_bytes"] for s in memory_spans if s["name"] in names), default=0) / 2**20

    def rate(a, b):
        return a / b if b else 0.0

    tables = {(spans[i]["job"], spans[i]["table"]) for i in pick("spectrum.walsh_spectrum")}
    cumulative_in_sample = sum(dur[i] for i in pick("bvsim.BvDistribution.cumulative")
                               if spans[i]["parent"] is not None
                               and spans[spans[i]["parent"]]["name"] == "bvsim.bv_sample")
    sample_s = total("bvsim.bv_sample") - cumulative_in_sample
    classical_s = total("estimate.classical_estimate")
    cli_self = total("cli.run", own)
    return {
        "boolfn.to_truth_table.s": total("boolfn.to_truth_table"),
        "boolfn.to_truth_table.monomials": count("boolfn.to_truth_table", "monomials"),
        "cli.read_table.s": total("cli.read_table"),
        "cli.read_table.bytes": count("cli.read_table", "bytes"),
        "spectrum.walsh_spectrum.s": total("spectrum.walsh_spectrum"),
        "spectrum.walsh_spectrum.calls": len(pick("spectrum.walsh_spectrum")),
        "spectrum.walsh_spectrum.calls_per_table": rate(len(pick("spectrum.walsh_spectrum")), len(tables)),
        "spectrum.walsh_spectrum.peak_mib": peak("spectrum.walsh_spectrum"),
        "spectrum.influence_vector.s": total("spectrum.influence_vector"),
        "spectrum.influence_vector.self_s": total("spectrum.influence_vector", own),
        "spectrum.correlation_fast.s": total("spectrum.correlation_fast"),
        "spectrum.verify_identities.s": total("spectrum.verify_identities"),
        "spectrum.verify_identities.self_s": total("spectrum.verify_identities", own),
        "spectrum.verify_identities.peak_mib": peak("spectrum.verify_identities"),
        "spectrum.fwht.bytes_computed": count("spectrum.fwht", "bytes"),
        # The distribution layer includes the cumulative table, which the
        # first bv_sample on a distribution builds.
        "bvsim.bv_distribution.s": total("bvsim.bv_distribution") + total("bvsim.BvDistribution.cumulative"),
        "bvsim.bv_distribution.peak_mib": peak("bvsim.bv_distribution", "bvsim.BvDistribution.cumulative"),
        "bvsim.bv_sample.s": sample_s,
        "bvsim.bv_sample.draws": count("bvsim.bv_sample", "draws"),
        "bvsim.bv_sample.draws_per_s": rate(count("bvsim.bv_sample", "draws"), sample_s),
        "bvsim.bv_sample.peak_mib": peak("bvsim.bv_sample"),
        "bvsim.SampleBatch.ones_counts.s": total("bvsim.SampleBatch.ones_counts"),
        "estimate.algorithm1.s": total("estimate.algorithm1"),
        "estimate.algorithm1.self_s": total("estimate.algorithm1", own),
        "estimate.algorithm1.calls": len(pick("estimate.algorithm1")),
        "estimate.influential_list.s": total("estimate.influential_list"),
        "estimate.classical_estimate.s": classical_s,
        "estimate.classical_estimate.oracle_calls": count("estimate.classical_estimate", "oracle_calls"),
        "estimate.classical_estimate.oracle_calls_per_s": rate(
            count("estimate.classical_estimate", "oracle_calls"), classical_s),
        "learn.algorithm2.s": total("learn.algorithm2"),
        "learn.algorithm3.s": total("learn.algorithm3"),
        "learn.self_s": total("learn.algorithm2", own) + total("learn.algorithm3", own),
        "cli.run.s": total("cli.run"),
        "cli.self_s": cli_self,
        "cli.out_bytes": out_bytes,
        "cli.out_mib_per_s": rate(out_bytes / 2**20, cli_self),
        "trace.overhead_s": overhead_s,
    }


def calls_per_table(spans: list[dict]) -> dict:
    """walsh_spectrum calls per distinct table, per job; above 1 means recomputed work."""
    calls: dict = {}
    for s in spans:
        if s["name"] == "spectrum.walsh_spectrum":
            calls.setdefault(s["job"], []).append(s["table"])
    return {job: len(tables) / len(set(tables)) for job, tables in calls.items()}


def attribution(spans: list[dict]) -> dict:
    """Self time per job and layer: {job: {layer: seconds}}."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        layers = out.setdefault(s["job"], {})
        layers[layer_of(s["name"])] = layers.get(layer_of(s["name"]), 0.0) + own
    return out
