"""Shared helpers: seeded corpora and naive ground-truth oracles.

The naive routines here recompute spectra and correlations by direct
summation over all input pairs, O(4^n). They are deliberately dumb and
independent of the package's transform code paths, so the fast routes
are always tested against something that cannot share their bugs.
``naive_correlation`` is the only O(4^n) autocorrelation in the project;
the package computes C by the transform route alone.
"""

from __future__ import annotations

import numpy as np

from bvinfluence import TruthTable, random_function

MASTER_SEED = 0x5EED

# Closed-form functions at the n=24 cap: the full parity, whose spectrum is
# one coefficient of 2^24 at y = 1...1, and the inner-product bent function,
# whose every coefficient is +-2^12.
PARITY24 = " + ".join(f"x{k}" for k in range(1, 25))
BENT24 = " + ".join(f"x{2 * k - 1}*x{2 * k}" for k in range(1, 13))


def corpus(count: int, ns, master_seed: int = MASTER_SEED):
    """Deterministic list of random tables cycling over the given n values."""
    rng = np.random.Generator(np.random.PCG64(master_seed))
    tables = []
    for k in range(count):
        n = ns[k % len(ns)]
        tables.append(random_function(n, int(rng.integers(0, 2**63))))
    return tables


def parity_signs(n: int) -> np.ndarray:
    """Matrix M[y, x] = (-1)^(y.x) built from a popcount table."""
    size = 1 << n
    idx = np.arange(size)
    popcount = np.array([bin(v).count("1") for v in range(size)], dtype=np.int64)
    return 1 - 2 * (popcount[idx[:, None] & idx[None, :]] & 1)


def naive_walsh(table: TruthTable) -> np.ndarray:
    """W(y) = sum_x (-1)^(f(x) + y.x) by direct summation. Keep n small."""
    return parity_signs(table.n) @ table.signs()


def naive_correlation(table: TruthTable) -> np.ndarray:
    """C(gamma) = sum_x (-1)^(f(x) + f(x xor gamma)) by direct summation."""
    size = 1 << table.n
    signs = table.signs()
    out = np.empty(size, dtype=np.int64)
    idx = np.arange(size)
    for gamma in range(size):
        out[gamma] = int(np.dot(signs, signs[idx ^ gamma]))
    return out


def strided_half_mass(weights: np.ndarray, i: int) -> int:
    """Sum of weights[y] over y with bit i set, by one strided pass per i."""
    half = 1 << (i - 1)
    return int(weights.reshape(-1, 2, half)[:, 1, :].sum())


def lift(table: TruthTable, n: int, shift: int = 0) -> TruthTable:
    """Embed a k-variable table into n >= k variables.

    With shift=0 the extra (ignored) variables are the high ones; with
    shift=s the original variables move up by s and the low s variables
    become the ignored ones.
    """
    k = table.n
    if not (0 <= shift <= n - k):
        raise ValueError("shift out of range")
    bits = np.tile(np.repeat(table.bits, 1 << shift), 1 << (n - k - shift))
    return TruthTable(n, bits)
