"""Seeded random states and unitaries."""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedParameterError
from .states import BlochState, DensityMatrix


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed dim x dim unitary: ``haar_stack`` of one draw of its real, then imaginary, parts."""
    rng = np.random.default_rng(rng)
    return haar_stack(rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim)))


def haar_stack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., n, n) from standard normal real and imaginary parts, one per stacked matrix.

    QR of z = (re + i im) / sqrt(2) with R's diagonal phases moved into Q (Mezzadri,
    Notices AMS 54, 2007); a stack gives each matrix the bits it gets alone.
    """
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    diag = np.diagonal(r, 0, -2, -1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def random_density_matrix(dim: int, rank: int, rng) -> DensityMatrix:
    """Random mixed state of controlled rank.

    Draws a Gaussian dim x rank matrix G and normalizes G G^dagger, which is
    the reduced state of a uniformly random pure state on a system enlarged by
    a rank-dimensional partner.
    """
    rng = np.random.default_rng(rng)
    if not 1 <= rank <= dim:
        raise UnsupportedParameterError(f"rank must lie in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_bloch(rng) -> BlochState:
    """Bloch vector uniform over the unit ball."""
    rng = np.random.default_rng(rng)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform() ** (1.0 / 3.0)
    v = radius * direction
    return BlochState(float(v[0]), float(v[1]), float(v[2]))
