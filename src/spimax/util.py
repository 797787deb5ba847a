"""Shared helpers: seeds, scale floor, normal quantiles and scores, order statistics, CPU count."""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

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
    """Independent generator for an (index, purpose, ...) path.

    Streams derived from the same master seed but different paths are
    statistically independent, and the derivation does not depend on how
    work is scheduled.  Each unit-level bootstrap chunk, area-level
    bootstrap replicate (one row of its chunk's normal block, filled by
    replicate_normals), MC draw chunk and simulation replicate draws from
    the stream of its own index, which is what makes every result
    reproducible from (master_seed, index) alone, at any worker count.  An
    MC chunk c that is completed draws the rest of its noise from
    (master_seed, c, 1).
    """
    seq = np.random.SeedSequence(check_seed(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(seq)


# numpy's SeedSequence hash constants (pool of four uint32 words, xorshift
# 16) and PCG64's 128-bit LCG multiplier; replicate_normals reproduces both
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


def replicate_normals(master_seed: int, keys: Iterable[int], out: np.ndarray) -> None:
    """Fill row i of out with standard normals from derive_rng(master_seed, keys[i]), draw for draw.

    All streams are seeded in one vectorized pass.  The run-entropy pool of
    master_seed is mixed once (SeedSequence(master_seed).pool: without a
    spawn key numpy mixes the same zero-padded words); every key word b is
    then hashed into it as uint32 arrays, the four uint64 state words are
    generated, and PCG64's seeding step (O'Neill 2014)
    state = ((inc + initstate) * M + inc) mod 2**128 runs on Python ints.
    Keys are one word: 0 <= b < 2**32.
    """
    b = np.array(list(keys), dtype=np.int64)
    if b.size and (b.min() < 0 or b.max() > _MASK32):
        raise SeedOverflow(f"replicate keys must lie in [0, 2**32 - 1], got {b.min()}..{b.max()}")
    if out.ndim != 2 or out.shape[0] != b.size:
        raise ShapeMismatch(f"need one row of out per key: {b.size} keys, out shape {out.shape}")
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
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for row, hi, lo, inc_hi, inc_lo in zip(out, w0, w1, w2, w3):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=row)


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


# Wichura's AS241 (Applied Statistics 37, 1988, 477), highest power first, as
# CPython's statistics._normal_dist_inv_cdf writes it: numerator and
# denominator for |p - 0.5| <= 0.425, then in r = sqrt(-log(tail)) for
# r <= 5 and r > 5
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coefs: tuple, r: np.ndarray) -> np.ndarray:
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * r + c
    return acc


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile of each p in [0, 1); p = 0 gives -inf, as scipy's ndtri.

    Wichura's AS241 in the operation order of CPython's
    statistics.NormalDist.inv_cdf, so it returns the same bits; it agrees
    with scipy.special.ndtri to a few ulp.  Logs are taken by math.log,
    which numpy's log does not match bit for bit.  p = 0 is reached when a
    Bonferroni tail level alpha / (2 D) underflows.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p >= 1.0)):
        raise ValueError("normal quantile needs p in [0, 1)")
    q = p - 0.5
    x = np.full(p.shape, -math.inf)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    x[central] = _horner(_AS241_CENTRAL[0], r) * qc / _horner(_AS241_CENTRAL[1], r)
    tail = ~central & (p != 0.0)
    qt, pt = q[tail], p[tail]
    r = np.sqrt(-np.array([math.log(v) for v in np.where(qt <= 0.0, pt, 1.0 - pt).tolist()]))
    near, far = r - 1.6, r - 5.0
    xt = np.where(r <= 5.0, _horner(_AS241_NEAR[0], near) / _horner(_AS241_NEAR[1], near),
                  _horner(_AS241_FAR[0], far) / _horner(_AS241_FAR[1], far))
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x


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
