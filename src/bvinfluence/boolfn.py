"""Boolean functions on up to 24 variables: ANF, its truth table, random tables.

Conventions used throughout the package:

* An input assignment ``x = (x_1, ..., x_n)`` is encoded as the integer
  ``enc(x) = sum_i x_i * 2**(i-1)``, i.e. ``x_1`` is the least
  significant bit. Truth tables, Walsh spectra and sampled outputs are
  all indexed in this order.
* Variables are 1-based: ``x1`` is bit 0 of the encoded integer.

Values are immutable after construction and safe to share across
threads. The caches filled lazily on a table (its spectrum and masses,
and its core) are pure functions of the table, so fills that race may
compute twice but can only store equal values.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from .rng import _check_int, make_generator, resolve_seed

MAX_VARIABLES = 24

Monomial = frozenset[int]


class AnfSyntaxError(ValueError):
    """Raised when an ANF expression string fails to parse.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_n(n) -> int:
    return _check_int(n, "variable count", 1, MAX_VARIABLES)


def _check_index(i, n: int) -> int:
    return _check_int(i, "variable index", 1, n)


class TruthTable:
    """Evaluation table of a Boolean function over all 2^n inputs, one bit per entry.

    ``packed`` is f as read-only little-endian packed bytes: bit b of byte j
    is f(x) for the assignment with ``enc(x) == 8j + b``, and below n = 3
    the one byte's bits above 2^n are 0. This is the ``.ttb`` payload's
    layout. ``bits`` unpacks it into a fresh read-only uint8 array, one
    entry per input: an O(2^n) copy for inspection, not for hot loops.
    The table's Walsh spectrum is cached on it on first use
    (``walsh_spectrum``) and lives as long as the table does; the output
    distribution is a view of it, built anew by ``bv_distribution_of``.
    The sampler caches f's relevant variables and core in ``_core`` (``bvsim._core``).
    """

    __slots__ = ("n", "packed", "_spectrum", "_core")

    def __init__(self, n: int, bits):
        n = _check_n(n)
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size != (1 << n):
            raise ValueError(f"truth table for n={n} needs exactly {1 << n} bits, got shape {arr.shape}")
        # Validate on the input's own dtype: casting first would wrap 256
        # to 0 and truncate 0.7 to 0.
        if arr.dtype == np.uint8:
            if arr.max() > 1:
                raise ValueError("truth table entries must be 0 or 1")
        elif ((arr == 0) | (arr == 1)).all():
            arr = arr == 1  # exact 0/1 of any dtype, such as 1.0, as bools
        else:
            raise ValueError("truth table entries must be 0 or 1")
        self._set(n, np.packbits(arr, bitorder="little"))

    @classmethod
    def _of_packed(cls, n: int, packed: np.ndarray) -> TruthTable:
        """The table whose ``packed`` is this fresh, zero-padded uint8 array, kept without a copy."""
        table = cls.__new__(cls)
        table._set(n, packed)
        return table

    def _set(self, n: int, packed: np.ndarray) -> None:
        packed.flags.writeable = False
        super().__setattr__("n", n)
        super().__setattr__("packed", packed)
        super().__setattr__("_spectrum", None)
        super().__setattr__("_core", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruthTable is immutable")

    @property
    def bits(self) -> np.ndarray:
        """f(x) at every enc(x), as a new read-only uint8 array."""
        bits = np.unpackbits(self.packed, count=1 << self.n, bitorder="little")
        bits.flags.writeable = False
        return bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.packed, other.packed)

    def __repr__(self) -> str:
        return f"TruthTable(n={self.n}, weight={int(np.bitwise_count(self.packed).sum())})"

    def signs(self) -> np.ndarray:
        """(-1)^f(x) for every x, as int64."""
        return 1 - 2 * self.bits.astype(np.int64)


def _check_table(f) -> TruthTable:
    if not isinstance(f, TruthTable):
        raise TypeError(f"need a TruthTable (tabulate an Anf with to_truth_table), got {type(f).__name__}")
    return f


class Anf:
    """Algebraic normal form: an XOR of AND-monomials over GF(2).

    ``monomials`` is a frozenset of frozensets of 1-based variable
    indices; the empty frozenset denotes the constant term 1, and an
    empty collection of monomials is the constant 0 function.
    """

    __slots__ = ("n", "monomials")

    def __init__(self, monomials: Iterable[Iterable[int]], n: int):
        n = _check_n(n)
        monos = frozenset(frozenset(_check_index(k, n) for k in m) for m in monomials)
        super().__setattr__("n", n)
        super().__setattr__("monomials", monos)

    def __setattr__(self, name, value):
        raise AttributeError("Anf is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Anf):
            return NotImplemented
        return self.n == other.n and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash((self.n, self.monomials))

    def __repr__(self) -> str:
        return f"Anf({self.to_text()!r}, n={self.n})"

    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def to_text(self) -> str:
        """Canonical rendering; parsing it back yields an equal Anf."""
        if not self.monomials:
            return "0"
        ordered = sorted(self.monomials, key=lambda m: (len(m), sorted(m)))
        terms = []
        for mono in ordered:
            terms.append("1" if not mono else "*".join(f"x{k}" for k in sorted(mono)))
        return " + ".join(terms)


# After any whitespace: a variable (ASCII digits), a constant, an operator, or (group 3) an unexpected character.
_TOKEN = re.compile(r"\s*(x([0-9]+)|[10+*]|(\S))")


def from_anf(text: str, n: int) -> Anf:
    """Parse an ANF expression: terms joined by '+', XOR-reducing duplicates.

    Each term is '1', '0' (empty XOR), or 'x<k>' factors joined by '*'
    with k in ASCII digits and 1 <= k <= n. '+' is GF(2) addition, so
    repeated monomials cancel. Whitespace is ignored.
    """
    n = _check_n(n)
    tokens = list(_TOKEN.finditer(text))  # all read first: a bad character is reported before any grammar error
    for m in tokens:
        if m[3] is not None:
            raise AnfSyntaxError(f"unexpected character {m[3]!r}", m.start(1))
    if not tokens:
        raise AnfSyntaxError("empty expression", 0)

    terms: list[set[int]] = []  # the factors of every term but '0'
    expect = "term"  # what may come next: a "term", a "var" after '*', or after a term "+" ("+*" in a monomial)
    for m in tokens:
        kind, pos = "var" if m[2] else m[1], m.start(1)
        if expect in ("+", "+*"):
            if kind not in expect:
                raise AnfSyntaxError(f"expected '+', found {kind!r}", pos)
            expect = "term" if kind == "+" else "var"
        elif kind == "var":
            digits = m[2].lstrip("0") or "0"  # compared as text first: int() refuses over 4300 digits
            if len(digits) > len(str(n)) or not 1 <= int(digits) <= n:
                raise AnfSyntaxError(f"variable x{digits} out of range for n={n}", pos)
            if expect == "term":
                terms.append(set())
            terms[-1].add(int(digits))
            expect = "+*"
        elif expect == "var":
            raise AnfSyntaxError("expected variable after '*'", pos)
        elif kind in ("+", "*"):
            raise AnfSyntaxError(f"expected a term, found {kind!r}", pos)
        else:  # '1' is the empty monomial, '0' the empty XOR
            if kind == "1":
                terms.append(set())
            expect = "+"
    if expect == "term":
        raise AnfSyntaxError("dangling '+'", pos)
    if expect == "var":
        raise AnfSyntaxError("dangling '*'", pos)

    monomials: set[Monomial] = set()
    for term in terms:
        monomials ^= {frozenset(term)}  # each term is XORed in: a repeated one cancels
    return Anf(monomials, n)


# In-byte masks of x1, x2, x3: bit b of the byte is set where bit k-1 of b is.
_LOW_MASKS = (0xAA, 0xCC, 0xF0)

# Raw 64-bit words per block of random_function: 2^16 table entries.
_RAW_BLOCK = 1 << 13


def to_truth_table(f: Anf) -> TruthTable:
    """Tabulate an ANF: T[enc(x)] = XOR over monomials of AND of x's bits.

    Each monomial is 1 exactly on the subcube where its variables are 1,
    so it is XORed into the packed table. Variables x4..xn pick a subcube
    of the (2,)*(n-3) view of the bytes, whose axis n - k is the bit of
    x_k; x1, x2 and x3 AND the in-byte mask. Below n = 3 the mask keeps
    the one byte's low 2^n bits.
    """
    packed = np.zeros(max(1, 1 << f.n >> 3), np.uint8)
    cube = packed.reshape((2,) * max(0, f.n - 3))
    full = (1 << min(8, 1 << f.n)) - 1
    for mono in f.monomials:
        subcube = [slice(None)] * cube.ndim
        mask = full
        for k in mono:
            if k > 3:
                subcube[f.n - k] = 1
            else:
                mask &= _LOW_MASKS[k - 1]
        cube[tuple(subcube)] ^= mask
    return TruthTable._of_packed(f.n, packed)


def random_function(n: int, seed: int | None = None) -> TruthTable:
    """Uniformly random truth table; deterministic for a given seed.

    Entry k is numpy's k-th uint8 draw in [0, 2), the top bit of the k-th
    raw byte (see rng): each raw word packs into one table byte, one block
    of words at a time. The multiply gathers the top bit of every byte of a
    word into its top byte (Knuth, TAOCP 4A, 7.1.3).
    """
    n = _check_n(n)
    raw = make_generator(resolve_seed(seed)).bit_generator.random_raw
    packed = np.empty(max(1, 1 << n >> 3), np.uint8)
    for start in range(0, packed.size, _RAW_BLOCK):
        words = raw(min(_RAW_BLOCK, packed.size - start))
        words >>= np.uint64(7)
        words &= np.uint64(0x0101010101010101)
        words *= np.uint64(0x0102040810204080)
        words >>= np.uint64(56)
        packed[start:start + words.size] = words
    if n < 3:
        packed &= (1 << (1 << n)) - 1
    return TruthTable._of_packed(n, packed)
