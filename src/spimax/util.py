"""Shared helpers: seeds, scale floor, normal quantiles and scores, order statistics, CPU count."""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import AlphaOutOfRange, SeedOverflow, ShapeMismatch

# Seeds are kept inside the uint64 range so they survive a round trip
# through SeedSequence.generate_state.
MAX_SEED = 2**63 - 1


def check_seed(master_seed: int) -> int:
    if not isinstance(master_seed, (int, np.integer)):
        raise SeedOverflow(f"master seed must be an integer, got {type(master_seed).__name__}")
    if master_seed < 0 or master_seed > MAX_SEED:
        raise SeedOverflow(f"master seed must lie in [0, 2**63 - 1], got {master_seed}")
    return int(master_seed)


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (replicate, purpose, ...) path.

    Streams derived from the same master seed but different paths are
    statistically independent, and the derivation does not depend on how
    work is chunked or scheduled.  This is what makes every bootstrap /
    simulation result reproducible from (master_seed, index) alone.
    """
    seq = np.random.SeedSequence(check_seed(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)


# numpy's SeedSequence hash constants (pool of four uint32 words, xorshift
# 16) and PCG64's 128-bit LCG multiplier; replicate_rngs reproduces both
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """The SeedSequence hash constants init * mult**k mod 2**32, k = first .. first + count - 1."""
    return np.array([init * pow(mult, k, 2**32) & _MASK32 for k in range(first, first + count)],
                    dtype=np.uint32)


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def replicate_rngs(master_seed: int, keys: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each key b, the generator derive_rng(master_seed, b), draw for draw.

    All streams are seeded in one vectorized pass.  The run-entropy pool of
    master_seed is mixed once (SeedSequence(master_seed).pool: without a
    spawn key numpy mixes the same zero-padded words); every key word b is
    then hashed into it as uint32 arrays, the four uint64 state words are
    generated, and PCG64's seeding step (O'Neill 2014)
    state = ((inc + initstate) * M + inc) mod 2**128 runs on Python ints.
    The iterator yields one generator, its state reset for every key, so
    draw from it before advancing.  Keys are one word: 0 <= b < 2**32.
    """
    b = np.array(list(keys), dtype=np.int64)
    if b.size and (b.min() < 0 or b.max() > _MASK32):
        raise SeedOverflow(f"replicate keys must lie in [0, 2**32 - 1], got {b.min()}..{b.max()}")
    b = b.astype(np.uint32)
    pool = np.random.SeedSequence(check_seed(master_seed)).pool
    # mixing the pool took hash calls 0..15; the key word takes calls 16..19
    hc = _hash_consts(_INIT_A, _MULT_A, 16, 5)
    words = []
    for i in range(4):
        h = _xorshift((b ^ hc[i]) * hc[i + 1])
        mixed = np.uint32(_MIX_MULT_L * int(pool[i]) & _MASK32)
        words.append(_xorshift(mixed - np.uint32(_MIX_MULT_R) * h))
    # generate_state(4, uint64): eight uint32 words cycling over the pool
    hb = _hash_consts(_INIT_B, _MULT_B, 0, 9)
    half = [_xorshift((words[i % 4] ^ hb[i]) * hb[i + 1]).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = [(lo | hi << np.uint64(32)).tolist() for lo, hi in zip(half[::2], half[1::2])]
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(w2, w3)]
    states = [
        ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        for inc, hi, lo in zip(incs, w0, w1)
    ]
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)

    def reseeded() -> Iterator[np.random.Generator]:
        for state, inc in zip(states, incs):
            bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            yield rng

    return reseeded()


def derive_seed(master_seed: int, *path: int) -> int:
    """Integer sub-seed for handing to an API that wants a scalar seed."""
    seq = np.random.SeedSequence(check_seed(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, np.uint64)[0] & np.uint64(MAX_SEED))


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


SCALE_FLOOR = 1e-12  # relative to the largest scale in the vector


def floor_scales(scales) -> np.ndarray:
    """The studentizing scales, each raised to SCALE_FLOOR times the largest.

    The floor is relative, so studentized values do not depend on the units
    of the response.  Negative or non-finite scales, or only zeros, raise.
    """
    scales = np.asarray(scales, dtype=float)
    if not (np.all(np.isfinite(scales) & (scales >= 0)) and scales.any()):
        raise ShapeMismatch("scales must be finite, nonnegative and not all zero")
    return np.maximum(scales, SCALE_FLOOR * scales.max())


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile of each p in [0, 1); p = 0 gives -inf, as scipy's ndtri.

    statistics.NormalDist.inv_cdf is Wichura's AS241 (Applied Statistics
    37, 1988); it agrees with scipy.special.ndtri to a few ulp.  The
    standard library module is imported here, not at ``import spimax``.
    p = 0 is reached when a Bonferroni tail level alpha / (2 D) underflows.
    """
    from statistics import NormalDist

    p = np.asarray(p, dtype=float)
    inv_cdf = NormalDist().inv_cdf
    values = [-math.inf if q == 0.0 else inv_cdf(q) for q in p.ravel().tolist()]
    return np.array(values, dtype=float).reshape(p.shape)


def normal_scores(values) -> np.ndarray:
    """Normal quantiles at the plotting positions (rank - 0.5) / N; ties rank in order."""
    n = len(values)
    ranks = np.empty(n, dtype=float)
    ranks[np.argsort(values, kind="stable")] = np.arange(1, n + 1)
    return normal_quantile((ranks - 0.5) / n)


def quantile_index(n: int, alpha: float) -> int:
    """1-based order-statistic index floor((1-alpha)*n) + 1, capped at n."""
    check_alpha(alpha)
    if n < 1:
        raise ValueError("need at least one draw")
    return min(int(np.floor((1.0 - alpha) * n)) + 1, n)


def order_statistic(values: np.ndarray, k: int) -> float:
    """k-th smallest element (1-based)."""
    values = np.asarray(values, dtype=float)
    if not 1 <= k <= values.size:
        raise ValueError(f"order statistic index {k} outside [1, {values.size}]")
    return float(np.partition(values, k - 1)[k - 1])


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
