"""Workload definitions: what each benchmark run asks of bvinfluence, and why.

Every input is generated from the benchmark's ``--seed``; the program only
ever sees the generated table files and ANF strings, never ``--random``.
Each workload names four timed jobs. The end-to-end metrics ``job1_s`` to
``job4_s`` are those jobs' wall times in the order listed here, so the same
metric name means the same subcommand on every run of one workload.

This module imports numpy only. The benchmark's parent process uses it to
build reference answers without importing the package under test; the
child processes use it to rebuild the same inputs from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

LIB_ROUNDS = 8  # the library workload alternates its groups in this many rounds
PLANTED_LAYOUT = 0  # seeds the one variable permutation every planted function uses

# Labels the learners must give each planted role (monomial degree; 0 = absent).
THREE_CLASS_LABELS = {0: "absent", 1: "linear", 2: "quadratic", 3: "cubic"}
# The two-class learner reads every mixed column as quadratic, cubic ones too.
TWO_CLASS_LABELS = {0: "absent", 1: "linear", 2: "quadratic", 3: "quadratic"}


@dataclass(frozen=True)
class Function:
    """A seeded random truth table, or a planted XOR of disjoint monomials."""

    label: str
    n: int
    seed: int
    terms: tuple[tuple[int, ...], ...] | None = None
    path: str | None = None  # table file name written at set-up (random tables only)

    @property
    def planted(self) -> bool:
        return self.terms is not None

    def bits(self) -> np.ndarray:
        if self.planted:
            raise ValueError(f"{self.label} is planted; tabulate its ANF instead")
        return np.random.default_rng(self.seed).integers(0, 2, size=1 << self.n, dtype=np.uint8)

    def anf(self) -> str:
        return " + ".join("*".join(f"x{v}" for v in term) for term in self.terms)

    def degrees(self) -> dict[int, int]:
        """Variable -> degree of the planted monomial holding it (0 = absent)."""
        out = dict.fromkeys(range(1, self.n + 1), 0)
        for term in self.terms:
            for v in term:
                out[v] = len(term)
        return out

    def influences(self) -> tuple[Fraction, ...]:
        """Exact influences, computed without the package.

        Planted: 2^(1-r) for a variable in a degree-r monomial of an XOR of
        disjoint monomials. Random: definitional counting of the inputs
        whose output flips with bit i.
        """
        if self.planted:
            return tuple(Fraction(1, 1 << (d - 1)) if d else Fraction(0)
                         for d in self.degrees().values())
        bits = self.bits()
        out = []
        for i in range(1, self.n + 1):
            pairs = bits.reshape(-1, 2, 1 << (i - 1))
            changed = 2 * int(np.count_nonzero(pairs[:, 0, :] != pairs[:, 1, :]))
            out.append(Fraction(changed, 1 << self.n))
        return tuple(out)


def planted(label: str, n: int, counts: dict[int, int], seed: int) -> Function:
    """XOR of counts[r] disjoint degree-r monomials, on a fixed layout per n.

    The layout is not drawn from ``seed``: which variables hold which
    role moves the sampler's cost by a quarter at n=20 (the outcomes'
    spread over the cumulative table changes), and that would read as
    run-to-run noise. ``seed`` seeds the calls made on the function.
    """
    order = [int(v) + 1 for v in np.random.default_rng(PLANTED_LAYOUT).permutation(n)]
    terms, used = [], 0
    for degree in sorted(counts):
        for _ in range(counts[degree]):
            terms.append(tuple(sorted(order[used:used + degree])))
            used += degree
    if used > n:
        raise ValueError(f"{label}: {used} planted variables exceed n={n}")
    return Function(label, n, seed, terms=tuple(terms))


@dataclass(frozen=True)
class Job:
    """One CLI invocation, run in its own child process."""

    metric: str  # the per-subcommand name the report prints, e.g. "verify_s"
    command: str
    function: Function
    options: tuple[str, ...] = ()
    fmt: str = "json"

    def argv(self, workdir: str) -> list[str]:
        f = self.function
        source = ["--anf", f.anf(), "--n", str(f.n)] if f.planted else ["--table", f"{workdir}/{f.path}"]
        return [self.command, *source, *self.options, "--format", self.fmt]

    def option(self, flag: str, default: int | None = None) -> int | None:
        if flag in self.options:
            return int(self.options[self.options.index(flag) + 1])
        return default


@dataclass(frozen=True)
class LibGroup:
    """Library calls on a few tables, every call on one table sharing its object."""

    metric: str
    tables: tuple[tuple[Function, int], ...]  # (function, algorithm1 and influential_list calls)
    m: int = 1060
    rho: int = 60
    lam: int = 2000

    @property
    def functions(self) -> tuple[Function, ...]:
        return tuple(f for f, _ in self.tables)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    functions: tuple[Function, ...]
    jobs: tuple[Job, ...] = ()
    lib: tuple[LibGroup, ...] = ()

    @property
    def slots(self) -> tuple[str, ...]:
        """Per-subcommand metric names, in job1_s..job4_s order."""
        return tuple(j.metric for j in (self.jobs or self.lib))


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def exact(seed: int, tiny: bool) -> Workload:
    # Spectrum layer and the 2^24-word memory budget: each int64 array is
    # 128 MiB, above the 105 MiB L3, while sampling (1060 draws) and
    # rendering (under 10 KB) do little. learn2 adds ANF tabulation.
    n = 8 if tiny else 24
    s = _sub_seeds(seed, 4)
    table = Function("exact", n, s[0], path="exact.ttb")
    anf = planted("exact-anf", n, {1: 2, 2: 2} if tiny else {1: 5, 2: 6}, s[1])
    return Workload(
        "exact-n24",
        "exact spectrum at n=24, memory-bound; job1..4 = influence, verify, estimate (m=1060), learn2 on a planted ANF",
        (table, anf),
        jobs=(
            Job("influence_s", "influence", table),
            Job("verify_s", "verify", table),
            Job("estimate_s", "estimate", table, ("--seed", str(s[2]))),
            Job("learn2_s", "learn2", anf, ("--rho", "60", "--seed", str(s[3]))),
        ),
    )


def sample(seed: int, tiny: bool) -> Workload:
    # Sampling layer: at m = 4e6 the inverse-CDF lookup dwarfs the 0.1 s
    # spectrum. Dense (random) and sparse (planted) spectra use the lookup
    # differently; classical exercises oracle lookups and not the sampler.
    # classical runs at the same m: at m = 1e6 interpreter start-up, which
    # drifts with the host more than compute does, was half of its time.
    n = 8 if tiny else 20
    m, lam = (20_000, 20_000) if tiny else (4_000_000, 4_000_000)
    s = _sub_seeds(seed, 6)
    table = Function("sample", n, s[0], path="sample.txt")
    anf = planted("sample-anf", n, {1: 1, 2: 1, 3: 1} if tiny else {1: 3, 2: 3, 3: 3}, s[1])
    return Workload(
        "sample-n20",
        "inverse-CDF sampling at m=4e6 on n=20; job1..4 = estimate, list-influential, learn3 (planted), classical (m=4e6)",
        (table, anf),
        jobs=(
            Job("estimate_s", "estimate", table, ("--m", str(m), "--seed", str(s[2]))),
            Job("list_influential_s", "list-influential", table, ("--m", str(m), "--seed", str(s[3]))),
            Job("learn3_s", "learn3", anf, ("--lambda", str(lam), "--seed", str(s[4]))),
            Job("classical_s", "classical", table, ("--m", str(m), "--seed", str(s[5]))),
        ),
    )


def render(seed: int, tiny: bool) -> Workload:
    # Report rendering: about 0.1 s of transform against seconds of JSON or
    # CSV output. Both formats run, so a change that helps one and costs
    # the other shows; the CSV twin is checked against the JSON one.
    n = 8 if tiny else 20
    m = 2_000 if tiny else 200_000
    s = _sub_seeds(seed, 2)
    table = Function("render", n, s[0], path="render.ttb")
    sampled = ("--m", str(m), "--seed", str(s[1]))
    return Workload(
        "render-n20",
        "report rendering of 2^20 coefficients and 2e5 draws; job1..4 = spectrum json, spectrum csv, bv-sample json, bv-sample csv",
        (table,),
        jobs=(
            Job("spectrum_json_s", "spectrum", table),
            Job("spectrum_csv_s", "spectrum", table, fmt="csv"),
            Job("bv_sample_json_s", "bv-sample", table, sampled),
            Job("bv_sample_csv_s", "bv-sample", table, sampled, fmt="csv"),
        ),
    )


def reuse(seed: int, tiny: bool) -> Workload:
    # The only workload where calls share a table: a spectrum cache shows
    # here (each n=22 call recomputes a 0.5 s spectrum today), and the
    # small-n groups expose per-call overhead, e.g. a sorted lookup that
    # loses at n <= 12.
    # Per size: (n, algorithm1 and influential_list calls per table, whether
    # a planted table joins the random one). Each group takes about a second
    # and the largest a few, so one run holds several children and every
    # slot is a median of several; n=22 has one table, since each of its
    # calls costs about 0.5 s today.
    plan = (((6, 20, True),), ((7, 10, True),), ((8, 4, True),), ((9, 2, True), (10, 2, False))) if tiny else (
        ((8, 400, True),), ((12, 150, True),), ((16, 24, True),), ((20, 1, True), (22, 1, False)))
    s = iter(_sub_seeds(seed, 2 * sum(len(sizes) for sizes in plan)))
    groups = []
    for sizes in plan:
        tables = []
        for n, repeats, with_planted in sizes:
            third = max(1, n // 8)
            tables.append((Function(f"reuse-{n}", n, next(s)), repeats))
            seed_of_planted = next(s)
            if with_planted:
                tables.append((planted(f"reuse-{n}-anf", n, {1: third, 2: third, 3: third}, seed_of_planted),
                               repeats))
        groups.append(LibGroup("lib_n" + "_".join(str(n) for n, _, _ in sizes) + "_s", tuple(tables)))
    return Workload(
        "reuse-lib",
        "library calls reusing one TruthTable per function; job1..4 = calls at n=8, n=12, n=16, n=20 and 22",
        tuple(f for g in groups for f in g.functions),
        lib=tuple(groups),
    )


WORKLOADS = {"exact-n24": exact, "sample-n20": sample, "render-n20": render, "reuse-lib": reuse}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed, tiny)
