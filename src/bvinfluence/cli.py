"""Command line interface: run any operation end to end, emit reports.

Reports are deterministic given their parameters: every stochastic
subcommand resolves its seed up front (drawing one from entropy when the
flag is omitted) and records it in the ``parameters`` block, so any
emitted report can be reproduced exactly. Output is plain JSON (default)
or CSV; nothing is colorized, so NO_COLOR needs no special handling.

Truth-table file formats (also see README):

* text: first line ``n=<k>``, second line 2^k characters of 0/1 in
  encoded-input order (x_1 = least significant bit), newline-terminated;
* binary (``.ttb`` extension): one header byte holding n, then the same
  bit sequence packed little-endian, 8 bits per byte: the table's own
  layout, ``TruthTable.packed``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import estimate as est
from . import learn as ln
from .boolfn import MAX_VARIABLES, TruthTable, _check_index, from_anf, random_function, to_truth_table
from .bvsim import bv_distribution_of, bv_sample
from .rng import resolve_seed, spawn_seeds
from .spectrum import influence_vector, verify_identities, walsh_spectrum

SCHEMA_VERSION = 1
CSV_SCHEMA_VERSION = 1


class CliError(ValueError):
    """Validation problem that should surface as a diagnostic and exit code 2."""


def rational(x: Fraction) -> dict:
    """Render an exact rational for reports: num/den plus a 17-digit decimal."""
    x = Fraction(x)
    return {
        "fraction": f"{x.numerator}/{x.denominator}",
        "decimal": format(float(x), ".17g"),
    }


def read_table(path: str) -> TruthTable:
    """Load a truth table from the text or binary file format."""
    if path.endswith(".ttb"):
        with open(path, "rb") as fh:
            raw = fh.read()
        if not raw:
            raise CliError(f"{path}: empty truth-table file")
        n = raw[0]
        if not 1 <= n <= MAX_VARIABLES:
            raise CliError(f"{path}: header byte n={n} out of range 1..{MAX_VARIABLES}")
        size = 1 << n
        need = (size + 7) // 8
        if len(raw) - 1 != need:
            raise CliError(f"{path}: expected {need} payload bytes for n={n}, found {len(raw) - 1}")
        if raw[-1] >> (size % 8 or 8):
            raise CliError(f"{path}: nonzero padding bits after the {size} table bits")
        # the payload is the table's own layout: one aligned copy, kept by the table
        return TruthTable._of_packed(n, np.frombuffer(raw, np.uint8, offset=1).copy())

    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        payload = fh.readline().strip()
        trailing = fh.read().strip()
    if not header.startswith("n="):
        raise CliError(f"{path}: first line must be 'n=<k>', found {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise CliError(f"{path}: could not parse variable count from {header!r}") from None
    if not 1 <= n <= MAX_VARIABLES:
        raise CliError(f"{path}: n={n} out of range 1..{MAX_VARIABLES}")
    size = 1 << n
    if len(payload) != size:
        raise CliError(f"{path}: expected {size} table characters, found {len(payload)}")
    if trailing:
        raise CliError(f"{path}: unexpected content after the table line")
    # Any character but 0 and 1 lands above 1 in uint8, which the table refuses.
    try:
        return TruthTable(n, np.frombuffer(payload.encode("ascii"), dtype=np.uint8) - ord("0"))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def write_table(table: TruthTable, path: str) -> None:
    """Write a truth table; the .ttb extension selects the binary format."""
    if path.endswith(".ttb"):
        with open(path, "wb") as fh:
            fh.write(bytes([table.n]))
            fh.write(table.packed)
    else:
        with open(path, "wb") as fh:
            fh.write(f"n={table.n}\n".encode("ascii"))
            fh.write(table.bits + ord("0"))
            fh.write(b"\n")


def _fraction(text: str) -> Fraction:
    """argparse type for an exact rational; '1/0' is reported like 'nan', not raised."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction value: {text!r}") from None


def _parse_random_source(text: str) -> tuple[int, int | None]:
    """'<n>' or '<n>:<seed>'."""
    head, sep, tail = text.partition(":")
    try:
        n = int(head)
        seed = int(tail) if sep else None
    except ValueError:
        raise CliError(f"--random expects '<n>' or '<n>:<seed>', got {text!r}") from None
    return n, seed


def _resolve_function(args) -> tuple[TruthTable, dict]:
    """Turn the --anf/--table/--random flags into a table plus its provenance."""
    chosen = [name for name in ("anf", "table", "random") if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise CliError("exactly one of --anf, --table, --random is required")
    if args.n is not None and args.anf is None:
        raise CliError("--n applies only to --anf")

    if args.anf is not None:
        if args.n is None:
            raise CliError("--anf requires --n")
        anf = from_anf(args.anf, args.n)
        return to_truth_table(anf), {"source": "anf", "expression": args.anf, "n": args.n}

    if args.table is not None:
        table = read_table(args.table)
        return table, {"source": "table", "path": args.table, "n": table.n}

    n, seed = _parse_random_source(args.random)
    seed = resolve_seed(seed)
    return random_function(n, seed), {"source": "random", "n": n, "function_seed": seed}


# --- subcommand handlers: each returns the results block of its report ---


def _cmd_influence(args, table):
    vec = influence_vector(table)
    return {
        "influences": [
            {"variable": i, "influence": rational(vec[i])} for i in range(1, table.n + 1)
        ],
        "total": rational(vec.total),
    }


def _cmd_spectrum(args, table):
    return {"n": table.n, "coefficients": walsh_spectrum(table).w.tolist()}


def _cmd_bv_sample(args, table):
    outcomes = bv_sample(bv_distribution_of(table), args.m, args.seed).outcomes.tolist()
    return {
        "outcomes": outcomes,
        # y rendered as y_1 y_2 ... y_n, left to right
        "bits": [format(y, f"0{table.n}b")[::-1] for y in outcomes],
    }


def _cmd_estimate(args, table):
    report = est.algorithm1(table, args.m, args.seed)
    return {
        "estimates": [
            {"variable": i, "ones": report.ones[i - 1], "p": rational(report.p[i - 1])}
            for i in range(1, report.n + 1)
        ],
        "total": rational(report.total),
        "oracle_calls": report.oracle_calls,
        "hoeffding": {"confidence": 0.99, "epsilon": report.epsilon_at(0.99)},
    }


def _cmd_list_influential(args, table):
    listing = est.influential_list(table, args.m, args.seed, c=args.c)
    return {
        "variables": list(listing.variables),
        "guarantee": listing.guarantee,
        "threshold_influence": listing.threshold_influence,
        "oracle_calls": listing.m,
    }


def _learn_results(report):
    return {
        "classes": [
            {
                "variable": vc.index,
                "class": vc.label.value,
                "observed": rational(vc.observed),
                "window": None if vc.window is None
                else {"low": rational(vc.window[0]), "high": rational(vc.window[1])},
            }
            for vc in report.classes
        ],
        "error_budget": report.error_budget,
        "assumed_model": report.assumed_model,
    }


def _cmd_learn2(args, table):
    return _learn_results(ln.algorithm2(table, args.rho, args.seed))


def _cmd_learn3(args, table):
    return _learn_results(ln.algorithm3(table, args.lam, args.epsilon, args.seed))


def _cmd_classical(args, table):
    indices = [_check_index(args.i, table.n)] if args.i is not None else list(range(1, table.n + 1))
    # Variable i draws from child i-1 of the run seed, so --i replays it.
    seeds = spawn_seeds(args.seed, table.n)
    estimates = [est.classical_estimate(table, i, args.m, seeds[i - 1]) for i in indices]
    return {
        "estimates": [
            {"variable": e.i, "q": rational(e.q), "oracle_calls": e.oracle_calls}
            for e in estimates
        ],
        "oracle_calls_per_variable": 2 * args.m,
        "oracle_calls_total": sum(e.oracle_calls for e in estimates),
        "sampling_path_calls_for_all_variables": args.m,
    }


def _cmd_verify(args, table):
    checks = verify_identities(table)
    return {"identities": checks, "all_passed": all(c["passed"] for c in checks)}


def _influence_rows(results):
    yield from ([e["variable"], *e["influence"].values()] for e in results["influences"])
    yield ["total", *results["total"].values()]


def _learn_rows(results):
    for e in results["classes"]:
        window = e["window"]
        low, high = ("", "") if window is None else (window["low"]["decimal"], window["high"]["decimal"])
        yield [e["variable"], e["class"], *e["observed"].values(), low, high]


# Bytes bv-sample holds per draw: one int64 outcome, and while the report
# renders each outcome as a Python int and as a bit string: peak RSS grew by
# 121-137 bytes per draw between m = 10^6, 2*10^6 and 4*10^6 at n=24 (the
# longest bit strings; n is not known when the check runs), in either
# format. Rounded up to 160. Every other subcommand counts its draws block
# by block and holds none of them, whatever its count.
_BV_SAMPLE_BYTES_PER_DRAW = 160


def _check_count_memory(args) -> None:
    """Reject a bv-sample draw count whose outcomes would exceed physical memory."""
    if args.command != "bv-sample":
        return
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    need = args.m * _BV_SAMPLE_BYTES_PER_DRAW
    if need > have:
        raise CliError(f"--m {args.m} needs {need} bytes of draws, more than the {have} bytes of physical memory")


_M = ("--m", {"type": int, "default": est.DEFAULT_SAMPLES, "help": "number of draws"})
_SEED = ("--seed", {"type": int})
_C = ("--c", {"type": float, "default": 3.0, "help": "sensitivity constant in the 1-e^-c guarantee"})
_RHO = ("--rho", {"type": int, "default": ln.DEFAULT_RHO, "help": "circuit repetitions"})
_LAMBDA = ("--lambda", {"dest": "lam", "type": int, "default": ln.DEFAULT_LAMBDA})
_EPSILON = ("--epsilon", {"type": _fraction, "default": ln.DEFAULT_EPSILON, "help": "window half-width, in (0, 1/8)"})
_I = ("--i", {"type": int, "help": "variable index; all variables when omitted"})
_LEARN_CSV = ("variable,class,observed_fraction,observed_decimal,window_low,window_high", _learn_rows)

# Per subcommand, in --help order: its handler; the options it takes after
# the function flags, in the order its report's parameters list them; and
# its CSV v1 header line and a function reading the data rows off its results.
_COMMANDS = {
    "influence": (_cmd_influence, (), "variable,influence_fraction,influence_decimal", _influence_rows),
    "spectrum": (_cmd_spectrum, (), "y,coefficient", lambda r: enumerate(r["coefficients"])),
    "verify": (_cmd_verify, (), "identity,passed,detail", lambda r: (c.values() for c in r["identities"])),
    "bv-sample": (
        _cmd_bv_sample, (_M, _SEED), "index,outcome,bits", lambda r: zip(itertools.count(), r["outcomes"], r["bits"]),
    ),
    "estimate": (
        _cmd_estimate, (_M, _SEED), "variable,ones,p_fraction,p_decimal",
        lambda r: ([e["variable"], e["ones"], *e["p"].values()] for e in r["estimates"]),
    ),
    "list-influential": (_cmd_list_influential, (_M, _SEED, _C), "variable", lambda r: ([v] for v in r["variables"])),
    "learn2": (_cmd_learn2, (_RHO, _SEED), *_LEARN_CSV),
    "learn3": (_cmd_learn3, (_LAMBDA, _EPSILON, _SEED), *_LEARN_CSV),
    "classical": (
        _cmd_classical, (_M, _SEED, _I), "variable,q_fraction,q_decimal,oracle_calls",
        lambda r: ([e["variable"], *e["q"].values(), e["oracle_calls"]] for e in r["estimates"]),
    ),
}

_FUNCTION_FLAGS = (
    ("--anf", {"help": "ANF expression, e.g. 'x1 + x2*x3' (requires --n)"}),
    ("--n", {"type": int, "help": "variable count for --anf"}),
    ("--table", {"help": "truth-table file (text, or binary with .ttb extension)"}),
    ("--random", {"help": "random function as '<n>:<seed>' (seed optional)"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvinfluence",
        description="Exact and sampled influences of Boolean-function variables.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, _, _) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag, kwargs in _FUNCTION_FLAGS + options:
            sub.add_argument(flag, **kwargs)
    return parser


def _parameters(args, source: dict, options) -> dict:
    """The function's provenance, then each declared option that is set, keyed by its flag."""
    params = dict(source)
    for flag, kwargs in options:
        value = getattr(args, kwargs.get("dest", flag[2:]))
        if value is not None:
            params[flag[2:]] = rational(value) if isinstance(value, Fraction) else value
    return params


def run(argv=None, out=None, err=None) -> int:
    """Parse argv, run one subcommand, print its report; returns the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, options, header, rows = _COMMANDS[args.command]

    started = time.perf_counter()
    try:
        _check_count_memory(args)
        table, source = _resolve_function(args)
        if "seed" in args:
            args.seed = resolve_seed(args.seed)
        results = handler(args, table)
        # The table holds its cached spectrum; free it before rendering.
        del table
    except (ValueError, OSError) as exc:
        print(f"bvinfluence: error: {exc}", file=err)
        return 2
    elapsed = time.perf_counter() - started

    if args.format == "csv":
        out.write(f"# bvinfluence-csv v{CSV_SCHEMA_VERSION} command={args.command}\n{header}\n")
        csv.writer(out, lineterminator="\n").writerows(rows(results))
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": _parameters(args, source, options),
            "results": results,
            "timing": {"seconds": elapsed},
        }
        # dump writes each piece as it is encoded; no whole-report string is built.
        json.dump(report, out, indent=2)
        out.write("\n")
    # Only verify's results carry all_passed; it exits 1 when a check failed.
    return 0 if results.get("all_passed", True) else 1


def main(argv=None) -> int:
    # Under PYTHONUNBUFFERED=1 every JSON token would be its own system call.
    sys.stdout.reconfigure(write_through=False)
    code = run(argv)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
