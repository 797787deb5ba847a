"""Shared helpers: seed derivation, order statistics, deterministic maps."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import AlphaOutOfRange, SeedOverflow, ThreadsOutOfRange

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


def derive_seed(master_seed: int, *path: int) -> int:
    """Integer sub-seed for handing to an API that wants a scalar seed."""
    seq = np.random.SeedSequence(check_seed(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, np.uint64)[0] & np.uint64(MAX_SEED))


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


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


def check_threads(threads: int | None) -> None:
    """threads must be None (run inline) or a worker count of at least 1."""
    if threads is not None and threads < 1:
        raise ThreadsOutOfRange(f"threads must be at least 1, got {threads}")


def deterministic_map(func, items, threads: int | None):
    """Apply func over items, optionally on a thread pool.

    Results come back in input order regardless of scheduling; func must
    not mutate shared state.  threads=None or 1 runs inline.
    """
    check_threads(threads)
    items = list(items)
    if threads is None or threads <= 1 or len(items) <= 1:
        return [func(it) for it in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(func, items))
