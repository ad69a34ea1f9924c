"""Dense complex linear algebra: partial traces, singular spectra, Ky-Fan norms."""

from __future__ import annotations

import numpy as np


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce input to a 2-D complex array, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got array of shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite")
    return out


def partial_trace_b(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dim_a*dim_b)-dimensional operator."""
    m = as_matrix(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"operator shape {m.shape} does not match factor dimensions {dim_a}x{dim_b}"
        )
    return m.reshape(dim_a, dim_b, dim_a, dim_b).trace(axis1=1, axis2=3)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order."""
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular value computation did not converge: {exc}") from exc


def ky_fan_norm(m: np.ndarray, k: int) -> float:
    """Sum of the k largest singular values."""
    m = as_matrix(m)
    k_max = min(m.shape)
    if not 1 <= k <= k_max:
        raise ValueError(f"Ky-Fan order k={k} outside the valid range [1, {k_max}]")
    return float(singular_values(m)[:k].sum())


def trace_norm(m: np.ndarray) -> float:
    """Sum of all singular values."""
    return float(singular_values(m).sum())
