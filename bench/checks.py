"""Reference answers and output checks, computed without the package under test.

Every check returns a list of error strings; an empty list means the
output is correct. Sampled quantities are held to the Hoeffding radius at
failure probability ``DELTA`` around the exact influences, so a correct
program fails a check with negligible probability over every run.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np

from workloads import THREE_CLASS_LABELS, TWO_CLASS_LABELS, Function, Job

DELTA = 1e-12
DEFAULT_M = 1060  # the CLI's default --m: radius 0.05 at 99% confidence
DIRECT_COEFFICIENTS = 8  # spectrum coefficients re-derived by direct summation


def radius(m: int) -> float:
    """Hoeffding radius eps with Pr(|I - p| >= eps) <= DELTA at m samples."""
    return math.sqrt(math.log(2.0 / DELTA) / (2.0 * m))


def walsh(bits: np.ndarray) -> np.ndarray:
    """Integer Walsh spectrum W(y) = sum_x (-1)^(f(x) + x.y), the benchmark's own."""
    w = 1 - 2 * bits.astype(np.int64)
    h = 1
    while h < w.size:
        pairs = w.reshape(-1, 2, h)
        low, high = pairs[:, 0, :].copy(), pairs[:, 1, :]
        pairs[:, 0, :] += high
        pairs[:, 1, :] = low - high
        h *= 2
    return w


def direct_coefficient(bits: np.ndarray, y: int) -> int:
    """W(y) by direct O(2^n) summation."""
    x = np.arange(bits.size, dtype=np.int64)
    parity = np.bitwise_count(x & y).astype(np.uint8) & 1
    return int(bits.size - 2 * np.count_nonzero(bits ^ parity))


class Reference:
    """Exact answers for one generated function, built on first use."""

    def __init__(self, function: Function):
        self.function = function
        self.n = function.n
        self._influences = None
        self._bits = None
        self._spectrum = None

    @property
    def influences(self) -> tuple[Fraction, ...]:
        if self._influences is None:
            self._influences = self.function.influences()
        return self._influences

    @property
    def bits(self) -> np.ndarray:
        if self._bits is None:
            self._bits = self.function.bits()
        return self._bits

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = walsh(self.bits)
        return self._spectrum


def _per_variable(entries, n: int) -> list:
    if [e["variable"] for e in entries] != list(range(1, n + 1)):
        raise ValueError("entries are not variables 1..n in order")
    return entries


def _near(name: str, got, want, m: int) -> list[str]:
    r = radius(m)
    return [f"{name} of x{i}: {float(g):.6f} is {abs(float(g - w)):.6f} from exact {float(w):.6f}, radius {r:.6f}"
            for i, (g, w) in enumerate(zip(got, want), start=1) if abs(float(g - w)) >= r]


def check_influence(results, job: Job, ref: Reference) -> list[str]:
    got = [Fraction(e["influence"]["fraction"]) for e in _per_variable(results["influences"], ref.n)]
    errors = [f"influence of x{i}: {g} != exact {w}"
              for i, (g, w) in enumerate(zip(got, ref.influences), start=1) if g != w]
    if Fraction(results["total"]["fraction"]) != sum(ref.influences):
        errors.append(f"total {results['total']['fraction']} != exact {sum(ref.influences)}")
    return errors


def check_verify(results, job: Job, ref: Reference) -> list[str]:
    failed = [c["identity"] for c in results["identities"] if c["passed"] is not True]
    if results["all_passed"] is not True or failed:
        return [f"verify did not pass: all_passed={results['all_passed']}, failed {failed}"]
    return []


def check_spectrum(w: np.ndarray, job: Job, ref: Reference) -> list[str]:
    size = 1 << ref.n
    if len(w) != size:
        return [f"{len(w)} coefficients, expected {size}"]
    errors = []
    if int(np.dot(w, w)) != size * size:
        errors.append(f"Parseval: sum W^2 = {int(np.dot(w, w))}, expected 4^n = {size * size}")
    weight = int(np.count_nonzero(ref.bits))
    if int(w[0]) != size - 2 * weight:
        errors.append(f"W(0) = {int(w[0])}, expected 2^n - 2*weight = {size - 2 * weight}")
    for y in np.random.default_rng(ref.function.seed).integers(0, size, DIRECT_COEFFICIENTS):
        want = direct_coefficient(ref.bits, int(y))
        if int(w[y]) != want:
            errors.append(f"W({int(y)}) = {int(w[y])}, direct summation gives {want}")
    return errors


def check_outcomes(sample: tuple[np.ndarray, list[str]], job: Job, ref: Reference) -> list[str]:
    y, bit_strings = sample
    m = job.option("--m", DEFAULT_M)
    if len(y) != m or len(bit_strings) != m:
        return [f"{len(y)} outcomes and {len(bit_strings)} bit strings, expected {m}"]
    if y.min() < 0 or y.max() >= 1 << ref.n:
        return [f"outcome outside [0, 2^{ref.n})"]
    errors = []
    outside = np.flatnonzero(ref.spectrum[y] == 0)
    if outside.size:
        errors.append(f"{outside.size} outcomes outside the support, first y={int(y[outside[0]])}")
    if any(s != format(v, f"0{ref.n}b")[::-1] for v, s in zip(y.tolist(), bit_strings)):
        errors.append("bit strings do not spell the outcomes as y_1..y_n")
    ones = [Fraction(int(np.count_nonzero((y >> pos) & 1)), m) for pos in range(ref.n)]
    return errors + _near("frequency", ones, ref.influences, m)


def check_estimate(results, job: Job, ref: Reference) -> list[str]:
    m = job.option("--m", DEFAULT_M)
    entries = _per_variable(results["estimates"], ref.n)
    p = [Fraction(e["p"]["fraction"]) for e in entries]
    errors = [f"p of x{e['variable']} is not ones/m" for e, pe in zip(entries, p) if pe != Fraction(e["ones"], m)]
    if results["oracle_calls"] != m:
        errors.append(f"oracle_calls {results['oracle_calls']} != m = {m}")
    return errors + _near("estimate", p, ref.influences, m)


def listing_errors(listed, influences, m: int) -> list[str]:
    """A listing names no variable of influence 0 and misses none that must show.

    A variable of influence I shows a 1 in none of m draws with probability
    (1 - I)^m; where that is below DELTA, the variable must be listed.
    """
    listed = list(listed)
    errors = [f"x{i} listed but has influence 0" for i in listed if not influences[i - 1]]
    errors += [f"x{i} of influence {float(w):.6f} not listed after m={m} draws"
               for i, w in enumerate(influences, start=1)
               if i not in listed and (1 - float(w)) ** m < DELTA]
    if listed != sorted(set(listed)) or any(not 1 <= i <= len(influences) for i in listed):
        errors.append(f"listing {listed} is not increasing variables in 1..n")
    return errors


def check_listing(results, job: Job, ref: Reference) -> list[str]:
    return listing_errors(results["variables"], ref.influences, job.option("--m", DEFAULT_M))


def _check_labels(classes, degrees: dict[int, int], labels: dict[int, str], trials: int, ref) -> list[str]:
    classes = _per_variable(classes, ref.n)
    errors = [f"x{c['variable']} labelled {c['class']}, planted role is {labels[degrees[c['variable']]]}"
              for c in classes if c["class"] != labels[degrees[c["variable"]]]]
    observed = [Fraction(c["observed"]["fraction"]) for c in classes]
    return errors + _near("observed frequency", observed, ref.influences, trials)


def check_learn2(results, job: Job, ref: Reference) -> list[str]:
    return _check_labels(results["classes"], ref.function.degrees(), TWO_CLASS_LABELS, job.option("--rho"), ref)


def check_learn3(results, job: Job, ref: Reference) -> list[str]:
    return _check_labels(results["classes"], ref.function.degrees(), THREE_CLASS_LABELS, job.option("--lambda"), ref)


def check_classical(results, job: Job, ref: Reference) -> list[str]:
    m = job.option("--m", DEFAULT_M)
    entries = _per_variable(results["estimates"], ref.n)
    errors = [f"x{e['variable']} ledger {e['oracle_calls']} != 2m = {2 * m}" for e in entries if e["oracle_calls"] != 2 * m]
    if results["oracle_calls_per_variable"] != 2 * m or results["oracle_calls_total"] != 2 * m * ref.n:
        errors.append("ledger totals are not 2m per variable")
    q = [Fraction(e["q"]["fraction"]) for e in entries]
    return errors + _near("classical estimate", q, ref.influences, m)


CHECKS = {
    "influence": check_influence,
    "verify": check_verify,
    "spectrum": check_spectrum,
    "bv-sample": check_outcomes,
    "estimate": check_estimate,
    "list-influential": check_listing,
    "learn2": check_learn2,
    "learn3": check_learn3,
    "classical": check_classical,
}


def _csv_body(text: str, command: str, header: str) -> str:
    preamble, _, rest = text.partition("\n")
    if preamble != f"# bvinfluence-csv v1 command={command}":
        raise ValueError(f"bad CSV preamble {preamble!r}")
    head, _, body = rest.partition("\n")
    if head != header:
        raise ValueError(f"bad CSV header {head!r}")
    return body


def _numbered(columns: np.ndarray) -> np.ndarray:
    """The second column, after checking the first counts 0, 1, ... in order."""
    if not np.array_equal(columns[:, 0], np.arange(len(columns))):
        raise ValueError("CSV rows are not numbered 0, 1, ... in order")
    return columns[:, 1]


def report_values(job: Job, text: str):
    """The part of a report the checks read, in the same form for JSON and CSV."""
    if job.fmt == "csv":
        if job.command == "spectrum":
            body = _csv_body(text, job.command, "y,coefficient")
            return _numbered(np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2))
        if job.command == "bv-sample":
            body = _csv_body(text, job.command, "index,outcome,bits")
            columns = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, usecols=(0, 1), ndmin=2)
            return _numbered(columns), [row.rpartition(",")[2] for row in body.splitlines()]
        raise ValueError(f"no CSV check for {job.command}")
    report = json.loads(text)
    if report["command"] != job.command:
        raise ValueError(f"report is for {report['command']!r}")
    results = report["results"]
    if job.command == "spectrum":
        return np.array(results["coefficients"], dtype=np.int64)
    if job.command == "bv-sample":
        return np.array(results["outcomes"], dtype=np.int64), results["bits"]
    return results


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def check_report(job: Job, text: str, ref: Reference, twins: dict) -> list[str]:
    """Check one CLI report.

    ``twins`` holds the first values seen per (command, function, options):
    a CSV body must parse to its JSON twin's results, and a repeated job
    must reproduce its first output.
    """
    try:
        values = report_values(job, text)
        errors = CHECKS[job.command](values, job, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
    key = (job.command, job.function.label, job.options)
    if not _same(twins.setdefault(key, values), values):
        errors.append("report differs from the same job's earlier JSON or CSV results")
    return errors


def check_lib(group_result: dict, group, refs: dict[str, Reference]) -> list[str]:
    """Check every call of one reuse-lib group against the exact answers."""
    errors = []
    try:
        for table, (function, repeats) in zip(group_result["tables"], group.tables, strict=True):
            ref = refs[function.label]
            where = f"{function.label}: "
            got = [Fraction(v) for v in table["influence_vector"]]
            errors += [where + f"influence_vector x{i} = {g} != exact {w}"
                       for i, (g, w) in enumerate(zip(got, ref.influences, strict=True), start=1) if g != w]
            if len(table["algorithm1"]) != repeats or len(table["influential_list"]) != repeats:
                errors.append(where + "wrong number of calls recorded")
            for ones in table["algorithm1"]:
                errors += [where + e for e in _near("algorithm1", [Fraction(k, group.m) for k in ones],
                                                    ref.influences, group.m)]
            for listed in table["influential_list"]:
                errors += [where + "influential_list: " + e
                           for e in listing_errors(listed, ref.influences, group.m)]
            for name, trials, labels in (("algorithm2", group.rho, TWO_CLASS_LABELS),
                                         ("algorithm3", group.lam, THREE_CLASS_LABELS)):
                observed = [Fraction(v) for v in table[name]["observed"]]
                errors += [where + e for e in _near(name, observed, ref.influences, trials)]
                if function.planted:
                    degrees = function.degrees()
                    errors += [where + f"{name} labels x{i} {label}, planted role is {labels[degrees[i]]}"
                               for i, label in enumerate(table[name]["labels"], start=1)
                               if label != labels[degrees[i]]]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        errors.append(f"malformed library results: {exc!r}")
    return errors
