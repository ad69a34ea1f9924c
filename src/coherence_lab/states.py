"""Quantum state and observable types.

Density matrices, truncated number operators, the Bloch parameterization of
qubits, and unitaries that are block diagonal over the degenerate eigenspaces
of a two-system total number operator. All types validate their invariants at
construction and report the violated invariant together with the numerical
residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import StateValidationError, UnsupportedParameterError

HERMITIAN_ATOL = 1e-9
PSD_ATOL = 1e-9
TRACE_ATOL = 1e-9
UNITARY_ATOL = 1e-9
BLOCH_NORM_ATOL = 1e-9


def _readonly(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _validated_density(matrix: np.ndarray) -> np.ndarray:
    m = linalg.as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise StateValidationError(f"density matrix must be square, got shape {m.shape}")
    herm_residual = float(np.abs(m - linalg.dagger(m)).max())
    if herm_residual > HERMITIAN_ATOL:
        raise StateValidationError(
            f"not Hermitian: residual {herm_residual:.3e} exceeds {HERMITIAN_ATOL:.1e}"
        )
    trace_residual = float(abs(m.trace() - 1.0))
    if trace_residual > TRACE_ATOL:
        raise StateValidationError(
            f"trace differs from 1: residual {trace_residual:.3e} exceeds {TRACE_ATOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh((m + linalg.dagger(m)) / 2.0).min())
    if min_eig < -PSD_ATOL:
        raise StateValidationError(
            f"not positive semidefinite: minimum eigenvalue {min_eig:.3e} below -{PSD_ATOL:.1e}"
        )
    return _readonly(m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace complex matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated_density(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """tr(rho^2)."""
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def evolve(self, unitary: np.ndarray) -> "DensityMatrix":
        """Conjugate by a unitary matrix."""
        u = linalg.as_matrix(unitary)
        return DensityMatrix(u @ self.matrix @ linalg.dagger(u))

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Joint state of two independent systems."""
        return DensityMatrix(np.kron(self.matrix, other.matrix))


@dataclass(frozen=True)
class NumberOperator:
    """Non-degenerate observable diag(0, 1, ..., dim-1); its eigenvalue gaps label coherence modes."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise UnsupportedParameterError(f"number operator dimension must be >= 1, got {self.dim}")

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.arange(self.dim)


@dataclass(frozen=True)
class BlochState:
    """Qubit state written as a Bloch vector (nx, ny, nz): finite components, 2-norm at most 1."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self) -> None:
        # NaN compares false against the norm bound, so it must be rejected on its own
        if not (math.isfinite(self.nx) and math.isfinite(self.ny) and math.isfinite(self.nz)):
            raise StateValidationError(
                f"Bloch vector ({self.nx}, {self.ny}, {self.nz}) has a non-finite component"
            )
        norm = self.norm()
        if norm > 1.0 + BLOCH_NORM_ATOL:
            raise StateValidationError(
                f"Bloch vector norm {norm:.12g} exceeds 1 by {norm - 1.0:.3e}"
            )

    def norm(self) -> float:
        # hypot scales internally, so huge finite components do not overflow
        return math.hypot(self.nx, self.ny, self.nz)


@functools.cache
def _generator_layout(d: int) -> tuple:
    """Eigenspace index blocks and per-index eigenvalues of L (x) I + I (x) L, once per d.

    Every generator of one dimension shares these arrays, so they are read-only.
    """
    blocks = []
    for c in range(2 * d - 1):
        lo, hi = max(0, c - d + 1), min(d - 1, c)
        idx = np.array([n * d + (c - n) for n in range(lo, hi + 1)], dtype=int)
        expected = c + 1 if c < d - 1 else 2 * d - 1 - c
        if idx.size != expected:
            raise StateValidationError(
                f"eigenspace {c} has {idx.size} basis kets, expected {expected}"
            )
        idx.setflags(write=False)
        blocks.append(idx)
    rebuilt = np.zeros((d * d, d * d))
    for c, idx in enumerate(blocks):
        rebuilt[idx, idx] = c
    target = np.kron(np.diag(np.arange(d)), np.eye(d)) + np.kron(np.eye(d), np.diag(np.arange(d)))
    if not np.array_equal(rebuilt, target):
        raise StateValidationError("eigenspace projectors do not reassemble the total number operator")
    lam = (np.arange(d)[:, None] + np.arange(d)[None, :]).ravel()
    lam.setflags(write=False)
    return tuple(blocks), lam


@dataclass(frozen=True)
class BipartiteGenerator:
    """Total number operator L (x) I + I (x) L of two systems of equal dimension.

    Eigenvalues are c = 0..2d-2. The eigenspace with eigenvalue c is spanned by
    the kets |n, c-n> and is kept in order of increasing first index n, which
    fixes the layout of every block-structured object built on top.
    """

    local: NumberOperator

    @property
    def dim(self) -> int:
        """Local dimension d of each factor."""
        return self.local.dim

    @property
    def total_dim(self) -> int:
        return self.local.dim ** 2

    @property
    def n_eigenvalues(self) -> int:
        return 2 * self.local.dim - 1

    @property
    def index_eigenvalues(self) -> np.ndarray:
        """Eigenvalue of each tensor-basis index |n, m> -> n + m."""
        return _generator_layout(self.local.dim)[1]

    def block_dim(self, c: int) -> int:
        """Degeneracy of eigenvalue c."""
        return _generator_layout(self.local.dim)[0][c].size

    def block_indices(self, c: int) -> np.ndarray:
        """Tensor-basis indices spanning the eigenvalue-c subspace, ordered by first index."""
        return _generator_layout(self.local.dim)[0][c].copy()

    def projector(self, c: int) -> np.ndarray:
        p = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        idx = _generator_layout(self.local.dim)[0][c]
        p[idx, idx] = 1.0
        return p

    @property
    def matrix(self) -> np.ndarray:
        """The total operator as a dense (d^2 x d^2) matrix."""
        return np.diag(self.index_eigenvalues).astype(complex)


@dataclass(frozen=True, eq=False)
class AllowedUnitary:
    """Unitary commuting with a total number operator: one free unitary per degenerate eigenspace.

    It commutes by construction: [U, N] = (lambda_c - lambda_r) U at entry (r, c)
    is zero inside each eigenspace block, and ``_generator_layout`` checks that
    the blocks tile N.
    """

    generator: BipartiteGenerator
    blocks: tuple

    def __post_init__(self) -> None:
        gen = self.generator
        blocks = tuple(linalg.as_matrix(b) for b in self.blocks)
        if len(blocks) != gen.n_eigenvalues:
            raise StateValidationError(
                f"expected {gen.n_eigenvalues} blocks, got {len(blocks)}"
            )
        frozen = []
        for c, block in enumerate(blocks):
            n = gen.block_dim(c)
            if block.shape != (n, n):
                raise StateValidationError(
                    f"block {c} has shape {block.shape}, expected ({n}, {n})"
                )
            residual = float(np.abs(block @ linalg.dagger(block) - np.eye(n)).max())
            if residual > UNITARY_ATOL:
                raise StateValidationError(
                    f"block {c} not unitary: residual {residual:.3e} exceeds {UNITARY_ATOL:.1e}"
                )
            frozen.append(_readonly(block))
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def matrix(self) -> np.ndarray:
        """Assembled full-dimension unitary."""
        gen = self.generator
        out = np.zeros((gen.total_dim, gen.total_dim), dtype=complex)
        for c, block in enumerate(self.blocks):
            idx = gen.block_indices(c)
            out[np.ix_(idx, idx)] = block
        return out


def bloch_to_density(b: BlochState) -> DensityMatrix:
    """Map (nx, ny, nz) to the qubit state with entries ((1+nz)/2, (nx+i ny)/2)."""
    p00 = (1.0 + b.nz) / 2.0
    p01 = (b.nx + 1j * b.ny) / 2.0
    return DensityMatrix(np.array([[p00, p01], [np.conj(p01), 1.0 - p00]]))


def density_to_bloch(rho: DensityMatrix) -> BlochState:
    """Inverse of bloch_to_density; only defined for qubits."""
    if rho.dim != 2:
        raise UnsupportedParameterError(f"Bloch vector requires a qubit state, got dim {rho.dim}")
    m = rho.matrix
    return BlochState(2.0 * m[0, 1].real, 2.0 * m[0, 1].imag, float(2.0 * m[0, 0].real - 1.0))


def isotropic_state(p: float) -> DensityMatrix:
    """Two-qubit mixture p * |phi+><phi+| + (1-p) * I/4, with |phi+> = (|00> + |11>)/sqrt(2)."""
    if not 0.0 <= p <= 1.0:
        raise UnsupportedParameterError(f"mixing parameter must lie in [0, 1], got {p}")
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0)


def density_to_json(rho: DensityMatrix) -> dict:
    """Serialize as {"dim": d, "re": [[...]], "im": [[...]]}."""
    return {
        "dim": rho.dim,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def _converted(value, convert, name: str):
    """``convert(value)``; a value it rejects is a validation error naming ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise StateValidationError(f"{name} has an invalid value: {exc}") from exc


def density_from_json(obj: dict) -> DensityMatrix:
    """Parse the dict form; invariant violations are rejected with the residual in the message."""
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise StateValidationError(f"state object missing key '{key}'")
    dim = _converted(obj["dim"], int, "state key 'dim'")
    re, im = (
        _converted(obj[key], functools.partial(np.asarray, dtype=float), f"state key '{key}'")
        for key in ("re", "im")
    )
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise StateValidationError(
            f"entry arrays have shapes {re.shape} and {im.shape}, expected ({dim}, {dim})"
        )
    return DensityMatrix(re + 1j * im)


def bloch_from_json(obj: dict) -> BlochState:
    for key in ("nx", "nz"):
        if key not in obj:
            raise StateValidationError(f"Bloch object missing key '{key}'")
    return BlochState(
        *(_converted(obj.get(key, 0.0), float, f"Bloch key '{key}'") for key in ("nx", "ny", "nz"))
    )
