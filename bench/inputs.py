"""Seeded benchmark inputs, written with plain numpy.

The generator deliberately does not call ``spimax.simulate``: a later change
to the simulator must not change what the benchmark feeds the program.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BETA = (1.0, 1.0, -0.5)  # intercept and two covariates (p = 2)
SIGMA2_U = 1.0
SIGMA2_E = 0.5
N_D = 5
SHIFT = 2.0  # null shift on the first fifth of clusters / contrast rows
N_CONTRASTS = 50
RESCALE = 1e4
DESK_D = 300
# the dense MC-scale einsum in the CLI is over half of an mc job at this D (a
# known defect, kept visible on purpose) and a run still fits two mc jobs
WIDE_D = 1400

# nine band-geometry constants for --method vt (p = 1 tube bound)
TUBE_CONSTANTS = (
    ("kappa0", 2.5), ("zeta0", 3.0), ("kappa2", 0.5), ("zeta1", 0.2), ("m0", 0.3),
    ("euler", 0.5), ("xi0", 1.0), ("eta0", 0.3), ("nu", 25.0),
)


@dataclass(frozen=True)
class UnitDraw:
    """One unit-level dataset and the true cluster-mean targets."""

    cluster: np.ndarray  # (n,) cluster index
    y: np.ndarray  # (n,)
    covs: np.ndarray  # (n, 2)
    mu: np.ndarray  # (D,) xbar_d' beta + u_d


def draw_units(seed: int, D: int) -> UnitDraw:
    rng = np.random.default_rng([seed, D])
    n = D * N_D
    covs = rng.uniform(0.0, 1.0, size=(n, len(BETA) - 1))
    u = np.sqrt(SIGMA2_U) * rng.standard_normal(D)
    e = np.sqrt(SIGMA2_E) * rng.standard_normal(n)
    cluster = np.repeat(np.arange(D), N_D)
    fixed = BETA[0] + covs @ np.asarray(BETA[1:])
    xbar = fixed.reshape(D, N_D).mean(axis=1)
    return UnitDraw(cluster=cluster, y=fixed + u[cluster] + e, covs=covs, mu=xbar + u)


def shifted_nulls(truth: np.ndarray) -> np.ndarray:
    """True values with the first fifth moved by SHIFT (false nulls)."""
    h = truth.copy()
    h[: truth.size // 5] += SHIFT
    return h


def adjacent_differences(D: int, rows: int = N_CONTRASTS) -> np.ndarray:
    A = np.zeros((rows, D))
    A[np.arange(rows), np.arange(rows)] = 1.0
    A[np.arange(rows), np.arange(rows) + 1] = -1.0
    return A


def _write_units(path: Path, draw: UnitDraw, scale: float) -> None:
    lines = ["cluster,y,x1,x2"]
    for c, y, (x1, x2) in zip(draw.cluster, draw.y * scale, draw.covs):
        lines.append(f"c{c:04d},{float(y)!r},{float(x1)!r},{float(x2)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_matrix(path: Path, rows: np.ndarray) -> None:
    rows = np.atleast_2d(rows)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    path.write_text(text + "\n", encoding="utf-8")


def write_desk(root: Path, seed: int, scale: float = 1.0) -> dict:
    """D=300 unit data, per-cluster nulls, contrasts and contrast nulls."""
    draw = draw_units(seed, DESK_D)
    A = adjacent_differences(DESK_D)
    files = {
        "data": root / "units.csv",
        "h": root / "h.csv",
        "contrasts": root / "A.csv",
        "h_contrasts": root / "h_contrasts.csv",
    }
    root.mkdir(parents=True, exist_ok=True)
    _write_units(files["data"], draw, scale)
    _write_matrix(files["h"], shifted_nulls(draw.mu)[:, None] * scale)
    _write_matrix(files["contrasts"], A)
    _write_matrix(files["h_contrasts"], shifted_nulls(A @ draw.mu)[:, None] * scale)
    return files


def write_wide(root: Path, seed: int) -> dict:
    """D=1400 unit data and the tube-constants file."""
    files = {"data": root / "units.csv", "tube": root / "tube.txt"}
    root.mkdir(parents=True, exist_ok=True)
    _write_units(files["data"], draw_units(seed, WIDE_D), 1.0)
    files["tube"].write_text(
        "".join(f"{k}={v!r}\n" for k, v in TUBE_CONSTANTS), encoding="utf-8"
    )
    return files
