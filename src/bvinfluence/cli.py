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
  bit sequence packed little-endian, 8 bits per byte.
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
        packed = np.frombuffer(raw[1:], dtype=np.uint8)
        bits = np.unpackbits(packed, bitorder="little")
        if bits[size:].any():
            raise CliError(f"{path}: nonzero padding bits after the {size} table bits")
        return TruthTable(n, bits[:size])

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
    if set(payload) - {"0", "1"}:
        raise CliError(f"{path}: table line may contain only 0 and 1")
    if trailing:
        raise CliError(f"{path}: unexpected content after the table line")
    bits = np.frombuffer(payload.encode("ascii"), dtype=np.uint8) - ord("0")
    return TruthTable(n, bits)


def write_table(table: TruthTable, path: str) -> None:
    """Write a truth table; the .ttb extension selects the binary format."""
    if path.endswith(".ttb"):
        packed = np.packbits(table.bits, bitorder="little")
        with open(path, "wb") as fh:
            fh.write(bytes([table.n]))
            fh.write(packed.tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"n={table.n}\n")
            fh.write("".join("1" if b else "0" for b in table.bits))
            fh.write("\n")


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

    if args.anf is not None:
        if args.n is None:
            raise CliError("--anf requires --n")
        anf = from_anf(args.anf, args.n)
        return to_truth_table(anf), {"source": "anf", "expression": args.anf, "n": args.n}

    if args.table is not None:
        table = read_table(args.table)
        return table, {"source": "table", "path": args.table, "n": table.n}

    n, seed = _parse_random_source(args.random)
    if not 1 <= n <= MAX_VARIABLES:
        raise CliError(f"--random n={n} out of range 1..{MAX_VARIABLES}")
    seed = resolve_seed(seed)
    return random_function(n, seed), {"source": "random", "n": n, "function_seed": seed}


def _bits_string(value: int, n: int) -> str:
    """y rendered as y_1 y_2 ... y_n, left to right."""
    return format(value, f"0{n}b")[::-1]


# --- subcommand handlers: each returns (parameters, results, exit code) ---


def _cmd_influence(args, table, source):
    vec = influence_vector(table)
    results = {
        "influences": [
            {"variable": i, "influence": rational(vec[i])} for i in range(1, table.n + 1)
        ],
        "total": rational(vec.total),
    }
    return source, results, 0


def _cmd_spectrum(args, table, source):
    return source, {"n": table.n, "coefficients": walsh_spectrum(table).w.tolist()}, 0


def _cmd_bv_sample(args, table, source):
    seed = resolve_seed(args.seed)
    outcomes = bv_sample(bv_distribution_of(table), args.m, seed).outcomes.tolist()
    params = dict(source, m=args.m, seed=seed)
    results = {
        "outcomes": outcomes,
        "bits": [_bits_string(y, table.n) for y in outcomes],
    }
    return params, results, 0


def _cmd_estimate(args, table, source):
    seed = resolve_seed(args.seed)
    report = est.algorithm1(table, args.m, seed)
    params = dict(source, m=args.m, seed=seed)
    results = {
        "estimates": [
            {"variable": i, "ones": report.ones[i - 1], "p": rational(report.p[i - 1])}
            for i in range(1, report.n + 1)
        ],
        "total": rational(report.total),
        "oracle_calls": report.oracle_calls,
        "hoeffding": {"confidence": 0.99, "epsilon": report.epsilon_at(0.99)},
    }
    return params, results, 0


def _cmd_list_influential(args, table, source):
    seed = resolve_seed(args.seed)
    listing = est.influential_list(table, args.m, seed, c=args.c)
    params = dict(source, m=args.m, seed=seed, c=args.c)
    results = {
        "variables": list(listing.variables),
        "guarantee": listing.guarantee,
        "threshold_influence": listing.threshold_influence,
        "oracle_calls": listing.m,
    }
    return params, results, 0


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


def _cmd_learn2(args, table, source):
    seed = resolve_seed(args.seed)
    report = ln.algorithm2(table, args.rho, seed)
    params = dict(source, rho=args.rho, seed=seed)
    return params, _learn_results(report), 0


def _cmd_learn3(args, table, source):
    seed = resolve_seed(args.seed)
    report = ln.algorithm3(table, args.lam, args.epsilon, seed)
    params = dict(source, **{"lambda": args.lam}, epsilon=rational(args.epsilon), seed=seed)
    return params, _learn_results(report), 0


def _cmd_classical(args, table, source):
    seed = resolve_seed(args.seed)
    if args.i is not None:
        _check_index(args.i, table.n)
    indices = [args.i] if args.i is not None else list(range(1, table.n + 1))
    # Variable i draws from child i-1 of the run seed, so --i replays it.
    seeds = spawn_seeds(seed, table.n)
    estimates = [est.classical_estimate(table, i, args.m, seeds[i - 1]) for i in indices]
    params = dict(source, m=args.m, seed=seed)
    if args.i is not None:
        params["i"] = args.i
    results = {
        "estimates": [
            {"variable": e.i, "q": rational(e.q), "oracle_calls": e.oracle_calls}
            for e in estimates
        ],
        "oracle_calls_per_variable": 2 * args.m,
        "oracle_calls_total": sum(e.oracle_calls for e in estimates),
        "sampling_path_calls_for_all_variables": args.m,
    }
    return params, results, 0


def _cmd_verify(args, table, source):
    checks = verify_identities(table)
    all_passed = all(c["passed"] for c in checks)
    return source, {"identities": checks, "all_passed": all_passed}, 0 if all_passed else 1


def _influence_rows(results):
    yield from ([e["variable"], *e["influence"].values()] for e in results["influences"])
    yield ["total", *results["total"].values()]


def _learn_rows(results):
    for e in results["classes"]:
        window = e["window"]
        low, high = ("", "") if window is None else (window["low"]["decimal"], window["high"]["decimal"])
        yield [e["variable"], e["class"], *e["observed"].values(), low, high]


_LEARN_HEADER = "variable,class,observed_fraction,observed_decimal,window_low,window_high"

# CSV v1: per subcommand, the header line and a function reading the data
# rows off the JSON results.
_CSV_TABLES = {
    "influence": ("variable,influence_fraction,influence_decimal", _influence_rows),
    "spectrum": ("y,coefficient", lambda r: enumerate(r["coefficients"])),
    "bv-sample": ("index,outcome,bits", lambda r: zip(itertools.count(), r["outcomes"], r["bits"])),
    "estimate": (
        "variable,ones,p_fraction,p_decimal",
        lambda r: ([e["variable"], e["ones"], *e["p"].values()] for e in r["estimates"]),
    ),
    "list-influential": ("variable", lambda r: ([v] for v in r["variables"])),
    "learn2": (_LEARN_HEADER, _learn_rows),
    "learn3": (_LEARN_HEADER, _learn_rows),
    "classical": (
        "variable,q_fraction,q_decimal,oracle_calls",
        lambda r: ([e["variable"], *e["q"].values(), e["oracle_calls"]] for e in r["estimates"]),
    ),
    "verify": ("identity,passed,detail", lambda r: (c.values() for c in r["identities"])),
}


# Bytes held per unit of a subcommand's count flag: one int64 per draw,
# and for classical the two int64 arrays of inputs and flipped inputs.
# bv-sample also holds each outcome as a Python int and as a bit string
# while the report renders: peak RSS grew by 121-137 bytes per draw
# between m = 10^6, 2*10^6 and 4*10^6 at n=24 (the longest bit strings;
# n is not known when the check runs), in either format. Rounded up to 160.
_COUNT_BYTES = {"classical": 16, "bv-sample": 160}


def _check_count_memory(args) -> None:
    """Reject a draw count whose arrays alone would exceed physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for flag, name in (("--m", "m"), ("--rho", "rho"), ("--lambda", "lam")):
        count = getattr(args, name, None)
        if count is None:
            continue
        need = count * _COUNT_BYTES.get(args.command, 8)
        if need > have:
            raise CliError(
                f"{flag} {count} needs {need} bytes of draws, more than the {have} bytes of physical memory"
            )


_HANDLERS = {
    "influence": _cmd_influence,
    "spectrum": _cmd_spectrum,
    "bv-sample": _cmd_bv_sample,
    "estimate": _cmd_estimate,
    "list-influential": _cmd_list_influential,
    "learn2": _cmd_learn2,
    "learn3": _cmd_learn3,
    "classical": _cmd_classical,
    "verify": _cmd_verify,
}


def _add_function_flags(sub):
    sub.add_argument("--anf", help="ANF expression, e.g. 'x1 + x2*x3' (requires --n)")
    sub.add_argument("--n", type=int, help="variable count for --anf")
    sub.add_argument("--table", help="truth-table file (text, or binary with .ttb extension)")
    sub.add_argument("--random", help="random function as '<n>:<seed>' (seed optional)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvinfluence",
        description="Exact and sampled influences of Boolean-function variables.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("influence", "spectrum", "verify"):
        _add_function_flags(subs.add_parser(name))

    p = subs.add_parser("bv-sample")
    _add_function_flags(p)
    p.add_argument("--m", type=int, default=est.DEFAULT_SAMPLES, help="number of draws")
    p.add_argument("--seed", type=int)

    p = subs.add_parser("estimate")
    _add_function_flags(p)
    p.add_argument("--m", type=int, default=est.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int)

    p = subs.add_parser("list-influential")
    _add_function_flags(p)
    p.add_argument("--m", type=int, default=est.DEFAULT_SAMPLES)
    p.add_argument("--c", type=float, default=3.0, help="sensitivity constant in the 1-e^-c guarantee")
    p.add_argument("--seed", type=int)

    p = subs.add_parser("learn2")
    _add_function_flags(p)
    p.add_argument("--rho", type=int, default=ln.DEFAULT_RHO, help="circuit repetitions")
    p.add_argument("--seed", type=int)

    p = subs.add_parser("learn3")
    _add_function_flags(p)
    p.add_argument("--lambda", dest="lam", type=int, default=ln.DEFAULT_LAMBDA)
    p.add_argument("--epsilon", type=Fraction, default=Fraction(1, 10), help="window half-width, in (0, 1/8)")
    p.add_argument("--seed", type=int)

    p = subs.add_parser("classical")
    _add_function_flags(p)
    p.add_argument("--i", type=int, help="variable index; all variables when omitted")
    p.add_argument("--m", type=int, default=est.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int)

    return parser


def _emit_json(report: dict, out) -> None:
    # dump writes each piece as it is encoded; no whole-report string is built.
    json.dump(report, out, indent=2)
    out.write("\n")


def _emit_csv(command: str, results: dict, out) -> None:
    header, rows = _CSV_TABLES[command]
    out.write(f"# bvinfluence-csv v{CSV_SCHEMA_VERSION} command={command}\n{header}\n")
    csv.writer(out, lineterminator="\n").writerows(rows(results))


def run(argv=None, out=None, err=None) -> int:
    """Parse argv, run one subcommand, print its report; returns the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        _check_count_memory(args)
        table, source = _resolve_function(args)
        params, results, code = _HANDLERS[args.command](args, table, source)
        # The table holds its cached spectrum; free both before rendering.
        del table
    except (ValueError, OSError) as exc:
        print(f"bvinfluence: error: {exc}", file=err)
        return 2
    elapsed = time.perf_counter() - started

    if args.format == "csv":
        _emit_csv(args.command, results, out)
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": params,
            "results": results,
            "timing": {"seconds": elapsed},
        }
        _emit_json(report, out)
    return code


def main(argv=None) -> int:
    # Under PYTHONUNBUFFERED=1 every JSON token would be its own system call.
    sys.stdout.reconfigure(write_through=False)
    code = run(argv)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
