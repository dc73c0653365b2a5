"""Child processes of the benchmark; run.py starts one at a time.

    child.py setup --workload W --seed S [--tiny] --dir D
        Cold-imports bvinfluence.cli and builds the workload's inputs with
        the package: writes each random table with write_table, constructs
        every TruthTable the library workload uses. Timed from outside as
        set-up. The random bits come from D/<label>.npy, which run.py
        writes beforehand, so the benchmark's own generator is not timed.
    child.py cli --out FILE [--spans FILE --job K [--memory]] -- ARGV...
        Runs bvinfluence.cli.run(ARGV) in-process with its report going to
        FILE; with --spans, records spans around the package's functions.
    child.py lib --workload W --seed S [--tiny] --dir D --out FILE [--spans FILE [--memory]]
        The library workload: every call on a table shares its object.
        Writes each group's timing and every call's result to FILE.

Each mode exits 3 if the imported package is not the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _import_package():
    import bvinfluence
    import bvinfluence.cli

    if not Path(bvinfluence.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: bvinfluence imported from {bvinfluence.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        sys.exit(3)
    return bvinfluence


def _bits(f, workdir: str) -> np.ndarray:
    return np.load(f"{workdir}/{f.label}.npy")


def _tables(bv, functions, workdir: str) -> dict:
    """Build each function's TruthTable with the package."""
    tables = {}
    for f in functions:
        if f.planted:
            tables[f.label] = bv.to_truth_table(bv.from_anf(f.anf(), f.n))
        else:
            tables[f.label] = bv.TruthTable(f.n, _bits(f, workdir))
    return tables


def setup(args) -> int:
    bv = _import_package()
    from workloads import build

    workload = build(args.workload, args.seed, args.tiny)
    if workload.lib:
        _tables(bv, workload.functions, args.dir)
    for f in workload.functions:
        if f.path:
            bv.cli.write_table(bv.TruthTable(f.n, _bits(f, args.dir)), f"{args.dir}/{f.path}")
    return 0


def _recorder(args):
    if not args.spans:
        return None
    import spans

    recorder = spans.Recorder(memory=args.memory)
    spans.install(recorder)
    if args.memory:
        tracemalloc.start()
    return recorder


def _write_spans(recorder, path) -> None:
    if recorder is not None:
        with open(path, "w") as fh:
            json.dump(recorder.spans, fh)


def cli(args) -> int:
    bv = _import_package()
    recorder = _recorder(args)
    if recorder is not None:
        recorder.job = args.job
    with open(args.out, "w") as out:
        code = bv.cli.run(args.argv, out=out)
    _write_spans(recorder, args.spans)
    return code


def _plan(bv, tables: dict, group) -> list:
    """Every call of one group as (table, kind, thunk), in order."""
    calls = []
    for f, repeats in group.tables:
        t, seed = tables[f.label], f.seed
        calls.append((f.label, "influence_vector", lambda t=t: bv.influence_vector(t)))
        calls += [(f.label, "algorithm1", lambda t=t, s=seed + j: bv.algorithm1(t, group.m, s))
                  for j in range(repeats)]
        calls += [(f.label, "influential_list", lambda t=t, s=seed + repeats + j: bv.influential_list(t, group.m, s))
                  for j in range(repeats)]
        calls.append((f.label, "algorithm2", lambda t=t, s=seed: bv.algorithm2(t, group.rho, s)))
        calls.append((f.label, "algorithm3", lambda t=t, s=seed: bv.algorithm3(t, group.lam, seed=s)))
    return calls


def _result(kind: str, r):
    if kind == "influence_vector":
        return [str(v) for v in r.values]
    if kind == "algorithm1":
        return list(r.ones)
    if kind == "influential_list":
        return list(r.variables)
    return {"labels": [c.label.value for c in r.classes], "observed": [str(c.observed) for c in r.classes]}


def lib(args) -> int:
    bv = _import_package()
    from workloads import LIB_ROUNDS, build

    workload = build(args.workload, args.seed, args.tiny)
    tables = _tables(bv, workload.functions, args.dir)
    recorder = _recorder(args)
    plans = [_plan(bv, tables, group) for group in workload.lib]
    seconds = [0.0] * len(plans)
    done: list[list] = [[] for _ in plans]
    # Each group's calls are split into rounds, and the rounds of all groups
    # alternate, so every group's time is summed over the whole run rather
    # than taken in one stretch that a slow spell of the machine can cover.
    for r in range(LIB_ROUNDS):
        for k, plan in enumerate(plans):
            chunk = plan[r * len(plan) // LIB_ROUNDS:(r + 1) * len(plan) // LIB_ROUNDS]
            if recorder is not None:
                recorder.job = k
            started = time.perf_counter()
            outputs = [call() for _, _, call in chunk]
            seconds[k] += time.perf_counter() - started
            done[k] += [(label, kind, out) for (label, kind, _), out in zip(chunk, outputs)]
    groups = []
    for group, results, spent in zip(workload.lib, done, seconds):
        per_table = {f.label: {"algorithm1": [], "influential_list": []} for f in group.functions}
        for label, kind, out in results:
            value = _result(kind, out)
            if kind in ("algorithm1", "influential_list"):
                per_table[label][kind].append(value)
            else:
                per_table[label][kind] = value
        groups.append({"metric": group.metric, "seconds": spent, "calls": len(results),
                       "tables": [per_table[f.label] for f in group.functions]})
    with open(args.out, "w") as fh:
        json.dump({"groups": groups}, fh)
    _write_spans(recorder, args.spans)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    for p in (modes.add_parser("setup"), modes.add_parser("lib")):
        p.add_argument("--dir", required=True)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--tiny", action="store_true")
    p = modes.choices["lib"]
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--memory", action="store_true")
    p = modes.add_parser("cli")
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--job", type=int, default=0)
    p.add_argument("--memory", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"setup": setup, "cli": cli, "lib": lib}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
