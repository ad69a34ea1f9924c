"""Seeded random states and unitaries."""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedParameterError
from .states import BlochState, DensityMatrix


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix with phase fixing."""
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def random_density_matrix(dim: int, rank: int | None = None, rng=0) -> DensityMatrix:
    """Random mixed state of controlled rank.

    Draws a Gaussian dim x rank matrix G and normalizes G G^dagger, which is
    the reduced state of a uniformly random pure state on a system enlarged by
    a rank-dimensional partner.
    """
    rng = np.random.default_rng(rng)
    if rank is None:
        rank = dim
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
