"""Seeding policy shared by every stochastic routine in the package.

All randomness comes from numpy's PCG64 bit generator. Each call that
samples anything builds its own generator from an explicit integer seed,
so a (function, parameters, seed) triple always reproduces the same
output bit for bit, and independent calls never share stream state.
When a caller passes ``seed=None`` we draw a fresh 128-bit entropy seed
and hand it back, so the run is still reproducible after the fact.

Every bound the samplers and random tables draw from is a power of two,
2^b. For such a bound, Lemire's method, which ``Generator.integers`` uses, never
rejects, so each draw is the top b bits of the next piece of the raw
64-bit word stream (``bit_generator.random_raw``), read little-endian:

* a whole word for int64 draws with b > 32;
* a 32-bit half-word, low half first, for int64 draws with b <= 32;
* a byte, low byte first, for uint8 draws.

``bvsim._blocks``, into one reused int64 buffer at every width, and
``boolfn.random_function`` read their draws off the raw words this way:
faster than ``integers``, with identical streams, which
``test_raw_word_draws_match_integers`` and ``test_random_function_matches_integers``
pin; they fail first if numpy changes its bounded-integer algorithm.

The package's two number rules live here too, each with one message form:
``_check_int`` for every seed, count, index and outcome, ``_check_real`` for every real.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def _check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in low..high (from low up if ``high`` is None), as by ``operator.index``.

    A bool, a float or a str raises ``TypeError`` naming ``name``; out of range, ``ValueError`` naming it.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _check_real(value, name: str, high=math.inf):
    """``value`` unchanged, if it is a real number in the open interval (0, high).

    A non-``numbers.Real`` or a bool raises ``TypeError`` naming ``name``; NaN, inf or out of range, ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not 0 < value < high:
        raise ValueError(f"{name} must be in (0, {high}), got {value}")
    return value


def resolve_seed(seed: int | None) -> int:
    """Return ``seed`` as a non-negative int by ``_check_int``, drawing a fresh entropy seed for None."""
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return _check_int(seed, "seed", 0)


def make_generator(seed: int) -> np.random.Generator:
    """One PCG64 stream per call; never reuse a generator across calls."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds derived from one seed.

    Seed k is child k of ``SeedSequence(seed).spawn(count)``, folded to a
    128-bit integer. A child does not depend on ``count``, and runs with
    different parent seeds share no child, so adjacent seeds never replay
    each other's streams.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [int.from_bytes(c.generate_state(4).tobytes(), "little") for c in children]
