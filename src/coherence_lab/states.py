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
    adjoint = m.conj().T
    herm_residual = float(np.abs(m - adjoint).max())
    if herm_residual > HERMITIAN_ATOL:
        raise StateValidationError(
            f"not Hermitian: residual {herm_residual:.3e} exceeds {HERMITIAN_ATOL:.1e}"
        )
    trace_residual = float(abs(m.trace() - 1.0))
    if trace_residual > TRACE_ATOL:
        raise StateValidationError(
            f"trace differs from 1: residual {trace_residual:.3e} exceeds {TRACE_ATOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh((m + adjoint) / 2.0).min())
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
        return DensityMatrix(u @ self.matrix @ u.conj().T)


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
        # one comparison on the valid path: a NaN norm compares false, an infinite one exceeds the bound
        if math.hypot(self.nx, self.ny, self.nz) <= 1.0 + BLOCH_NORM_ATOL:
            return
        if not (math.isfinite(self.nx) and math.isfinite(self.ny) and math.isfinite(self.nz)):
            raise StateValidationError(
                f"Bloch vector ({self.nx}, {self.ny}, {self.nz}) has a non-finite component"
            )
        norm = self.norm()
        raise StateValidationError(
            f"Bloch vector norm {norm:.12g} exceeds 1 by {norm - 1.0:.3e}"
        )

    def norm(self) -> float:
        # hypot scales internally, so huge finite components do not overflow
        return math.hypot(self.nx, self.ny, self.nz)


@functools.cache
def _generator_layout(d: int) -> tuple:
    """Eigenspace ket table and per-index eigenvalues of L (x) I + I (x) L, once per d.

    ``kets[b, n]`` is the tensor index n d + (b - n) of |n, b - n>, or d^2 where that
    ket does not exist. Every generator of one dimension shares these read-only arrays.
    """
    levels = np.arange(d)
    second = np.arange(2 * d - 1)[:, None] - levels
    kets = np.where((0 <= second) & (second < d), levels * d + second, d * d)
    lam = (levels[:, None] + levels).ravel()
    kets.setflags(write=False)
    lam.setflags(write=False)
    return kets, lam


@functools.cache
def _block_mask(d: int) -> np.ndarray:
    """Where each eigenspace block b sits in a padded (2d - 1, d, d) stack: where ket |n, b - n> exists.

    Row and column n of block b hold that ket (``_generator_layout``'s table).
    """
    inside = _generator_layout(d)[0] < d * d
    mask = inside[:, :, None] & inside[:, None, :]
    mask.setflags(write=False)
    return mask


@functools.cache
def _generator_coords(d: int) -> tuple:
    """Real coordinates of a padded Hermitian block stack in which a dot product is the Frobenius tr(G K).

    Each block inside ``_block_mask`` gives, row by row over its upper
    triangle, each diagonal entry, and sqrt 2 times the real and then the
    imaginary part of each entry right of the diagonal: P = sum of n_b^2
    coordinates. Returns, per coordinate, read-only arrays of length P: its
    entry's cell and mirror cell in the flattened (2d - 1, d, d) stack, whether
    it is the imaginary part, and its factor, 1 or sqrt 2.
    """
    b, r, c = np.argwhere(_block_mask(d) & np.triu(np.ones((d, d), dtype=bool))).T
    # each entry's real part, and its imaginary part right of the diagonal
    entry, imag = np.divmod(np.flatnonzero(np.column_stack((r <= c, r != c))), 2)
    b, r, c = b[entry], r[entry], c[entry]
    maps = ((b * d + r) * d + c, (b * d + c) * d + r, imag.astype(bool), np.where(r != c, math.sqrt(2.0), 1.0))
    for m in maps:
        m.setflags(write=False)
    return maps


def _padded_units(units, d: int) -> np.ndarray:
    """Block unitary arrays (..., n_b, n_b) as one (..., 2d - 1, d, d) stack, identity outside each block."""
    lead = units[0].shape[:-2]
    padded = np.zeros((*lead, len(units), d, d), dtype=complex) + np.eye(d)
    padded[..., _block_mask(d)] = np.concatenate([u.reshape(*lead, -1) for u in units], -1)
    return padded


@functools.cache
def _matrix_scatter(d: int) -> np.ndarray:
    """Flat index into the d^2 x d^2 matrix of each padded block entry (n, n') of block b, in ``_block_mask`` order."""
    kets = _generator_layout(d)[0]
    index = (kets[:, :, None] * d * d + kets[:, None, :])[_block_mask(d)]
    index.setflags(write=False)
    return index


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
        return self._blocks[c].size

    def block_indices(self, c: int) -> np.ndarray:
        """Tensor-basis indices spanning the eigenvalue-c subspace, ordered by first index."""
        return self._blocks[c].copy()

    @functools.cached_property
    def _blocks(self) -> tuple:
        """Row c of the ket table without its missing kets, for every eigenvalue c."""
        return tuple(row[row < self.total_dim] for row in _generator_layout(self.local.dim)[0])


@dataclass(frozen=True, eq=False, init=False)
class AllowedUnitary:
    """Unitary commuting with a total number operator: one free unitary per degenerate eigenspace.

    It commutes by construction: [U, N] = (lambda_c - lambda_r) U at entry (r, c) is zero inside each
    eigenspace block, and the blocks' kets, read from ``_generator_layout``'s table, tile the tensor
    basis. It holds one read-only identity-padded block stack (``_block_mask``), checked once.
    """

    generator: BipartiteGenerator
    _stack: np.ndarray

    def __init__(self, generator: BipartiteGenerator, blocks) -> None:
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        if len(blocks) != generator.n_eigenvalues:
            raise StateValidationError(f"expected {generator.n_eigenvalues} blocks, got {len(blocks)}")
        for c, block in enumerate(blocks):
            if block.shape != (n := generator.block_dim(c), n):
                linalg.as_matrix(block)  # a block that is not 2-D fails here, with its message
                raise StateValidationError(f"block {c} has shape {block.shape}, expected ({n}, {n})")
        self._keep(generator, _padded_units(blocks, generator.dim))

    @classmethod
    def _from_stack(cls, generator: BipartiteGenerator, stack: np.ndarray) -> "AllowedUnitary":
        """The unitary of a complex (2d - 1, d, d) stack of its blocks, identity outside ``_block_mask``."""
        return cls.__new__(cls)._keep(generator, stack)

    def _keep(self, generator: BipartiteGenerator, stack: np.ndarray) -> "AllowedUnitary":
        """Check a padded stack's finiteness and each block's unitarity, then hold a read-only copy of it."""
        linalg.as_matrix(stack.reshape(-1, generator.dim))  # every block's finiteness, in one check
        residuals = np.abs(stack @ stack.conj().swapaxes(-1, -2) - np.eye(generator.dim)).max((-2, -1))
        for c in np.flatnonzero(residuals > UNITARY_ATOL)[:1]:
            raise StateValidationError(f"block {c} not unitary: residual {residuals[c]:.3e} exceeds {UNITARY_ATOL:.1e}")
        self.__dict__.update(generator=generator, _stack=_readonly(stack))  # frozen: set once, here
        return self

    @property
    def blocks(self) -> tuple:
        """Each eigenspace's unitary, read from the stack into a fresh read-only array."""
        gen, mask = self.generator, _block_mask(self.generator.dim)
        return tuple(_readonly(u[m].reshape(gen.block_dim(c), -1)) for c, (u, m) in enumerate(zip(self._stack, mask)))

    @property
    def matrix(self) -> np.ndarray:
        """Assembled full-dimension unitary, a fresh array on each call."""
        gen = self.generator
        out = np.zeros(gen.total_dim ** 2, dtype=complex)
        out[_matrix_scatter(gen.dim)] = self._stack[_block_mask(gen.dim)]
        return out.reshape(gen.total_dim, gen.total_dim)


def bloch_to_density(b: BlochState) -> DensityMatrix:
    """Map (nx, ny, nz) to the qubit state with entries ((1+nz)/2, (nx+i ny)/2)."""
    p00 = (1.0 + b.nz) / 2.0
    p01 = (b.nx + 1j * b.ny) / 2.0
    return DensityMatrix(np.array([[p00, p01], [np.conj(p01), 1.0 - p00]]))


def isotropic_state(p: float) -> DensityMatrix:
    """Two-qubit mixture p * |phi+><phi+| + (1-p) * I/4, with |phi+> = (|00> + |11>)/sqrt(2)."""
    if not 0.0 <= p <= 1.0:
        raise UnsupportedParameterError(f"mixing parameter must lie in [0, 1], got {p}")
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return DensityMatrix(p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0)


def _int(value) -> int:
    """An integer or integer text; ``2.5``, ``"2.5"`` and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A number or number text, ``"nan"`` included; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _entries(value) -> np.ndarray:
    """Nested lists of numbers as a float array; numpy alone would read a boolean as 1.0 or 0.0."""
    entries = np.asarray(value, dtype=float)
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise TypeError("expected numbers, got a boolean")
    return entries


def _converted(value, convert, name: str):
    """``convert(value)``; a value it rejects is a validation error naming ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise StateValidationError(f"{name} has an invalid value: {exc}") from exc


def state_from_json(obj: dict, name: str) -> DensityMatrix:
    """The state of a matrix-form ({dim, re, im}) or Bloch-form ({nx, ny, nz}, ny optional) object.

    A key of neither form, keys of both, or a missing key is rejected under
    ``name``; invariant violations are rejected with the residual in the message.
    """
    matrix, bloch = obj.keys() & {"dim", "re", "im"}, obj.keys() & {"nx", "ny", "nz"}
    if stray := sorted(obj.keys() - matrix - bloch):
        raise StateValidationError(f"{name}: keys {stray} belong to neither form (dim/re/im or nx/ny/nz)")
    if matrix and bloch:
        raise StateValidationError(f"{name}: mixes matrix keys {sorted(matrix)} with Bloch keys {sorted(bloch)}")
    if missing := sorted(({"dim", "re", "im"} if matrix else {"nx", "nz"}) - obj.keys()):
        raise StateValidationError(f"{name}: missing keys {missing}")
    if matrix:
        dim = _converted(obj["dim"], _int, "state key 'dim'")
        re, im = (_converted(obj[key], _entries, f"state key '{key}'") for key in ("re", "im"))
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise StateValidationError(
                f"entry arrays have shapes {re.shape} and {im.shape}, expected ({dim}, {dim})"
            )
        return DensityMatrix(re + 1j * im)
    nx, ny, nz = (_converted(obj.get(key, 0.0), _float, f"Bloch key '{key}'") for key in ("nx", "ny", "nz"))
    return bloch_to_density(BlochState(nx, ny, nz))
