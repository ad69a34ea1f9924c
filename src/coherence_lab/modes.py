"""Mode decomposition of states with respect to a number operator.

A mode groups the matrix elements that connect eigenvalue pairs with one fixed
gap. Modes evolve independently under unitaries that commute with the
generator, which is what makes them the right bookkeeping unit for coherence
accounting. Locally the gap of entry (r, c) is simply r - c; for a two-system
state the gaps are taken with respect to the total number operator, so entries
are grouped by (n + m) differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import StateValidationError, UnsupportedParameterError
from .states import BipartiteGenerator, DensityMatrix, NumberOperator

#: a mode counts as present when its trace norm exceeds this threshold,
#: separating structural zeros from roundoff
MODE_PRESENCE_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Component of an operator supported on one eigenvalue gap.

    ``eigenvalues`` assigns a generator eigenvalue to every basis index; the
    operator may only have support where the row and column eigenvalues differ
    by exactly ``index``. An index outside the attainable gap range is legal
    only for the zero operator.
    """

    index: int
    op: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        op = linalg.as_matrix(self.op)
        eigs = np.asarray(self.eigenvalues, dtype=int)
        if op.shape != (eigs.size, eigs.size):
            raise StateValidationError(
                f"operator shape {op.shape} does not match {eigs.size} eigenvalue labels"
            )
        gaps = eigs[:, None] - eigs[None, :]
        off_support = op[gaps != self.index]
        if off_support.size and np.any(off_support != 0):
            worst = float(np.abs(off_support).max())
            raise StateValidationError(
                f"operator has weight {worst:.3e} outside the gap-{self.index} stripe"
            )
        op = op.copy()
        op.setflags(write=False)
        eigs = eigs.copy()
        eigs.setflags(write=False)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.op.shape[0]


def _check_local_index(op: NumberOperator, index: int, rho=None, lowest: int = 1) -> None:
    """Reject a state whose dimension is not the operator's, and an index outside [lowest, d-1]."""
    if rho is not None and rho.dim != op.dim:
        raise ValueError(f"state dimension {rho.dim} does not match operator dimension {op.dim}")
    if not lowest <= index <= op.dim - 1:
        raise UnsupportedParameterError(
            f"mode index {index} outside the local range [{lowest}, {op.dim - 1}]"
        )


def _local_gap_measure(matrix: np.ndarray, index: int) -> float:
    """Trace norm of the gap-``index`` stripe of a local matrix: the l1 norm of one diagonal.

    L is non-degenerate, so the stripe has at most one entry per row and column,
    and its singular values are the magnitudes on diagonal -``index``.
    """
    return float(np.abs(np.diagonal(matrix, offset=-index)).sum())


def _reduced_first(unitary: np.ndarray, joint: np.ndarray, d: int) -> np.ndarray:
    """First-system marginal of U X U^dagger on two d-dimensional systems, not re-validated."""
    sigma = unitary @ joint @ unitary.conj().T
    return sigma.reshape(d, d, d, d).trace(axis1=1, axis2=3)


def mode_component(rho: DensityMatrix, op: NumberOperator, index: int) -> ModeOperator:
    """Stripe of rho connecting eigenvalues that differ by ``index``."""
    _check_local_index(op, index, rho, lowest=1 - op.dim)
    return _component(rho.matrix, op.eigenvalues, index)


def _component(matrix: np.ndarray, eigenvalues: np.ndarray, index: int) -> ModeOperator:
    eigs = np.asarray(eigenvalues, dtype=int)
    gaps = eigs[:, None] - eigs[None, :]
    comp = np.where(gaps == index, matrix, 0.0)
    return ModeOperator(index, comp, eigs)


def mode_measure(rho: DensityMatrix, op: NumberOperator, index: int) -> float:
    """Trace norm of the mode component; zero exactly when the mode is absent."""
    _check_local_index(op, index, rho, lowest=1 - op.dim)
    return _local_gap_measure(rho.matrix, index)


def bipartite_mode(rho_ab: DensityMatrix, gen: BipartiteGenerator, index: int) -> ModeOperator:
    """Component of a two-system state on one total-eigenvalue gap.

    For a product state this equals the convolution of the local modes: local
    gaps k on the first system pair with gaps index - k on the second.
    """
    if rho_ab.dim != gen.total_dim:
        raise ValueError(
            f"state dimension {rho_ab.dim} does not match generator dimension {gen.total_dim}"
        )
    if abs(index) > 2 * gen.dim - 2:
        raise UnsupportedParameterError(
            f"mode index {index} outside the range of the total number operator"
        )
    return _component(rho_ab.matrix, gen.index_eigenvalues, index)


def bipartite_mode_set(
    rho_ab: DensityMatrix, gen: BipartiteGenerator, threshold: float = MODE_PRESENCE_THRESHOLD
) -> set:
    """Non-negative total-gap indices present in a two-system state."""
    return {
        j
        for j in range(2 * gen.dim - 1)
        if linalg.trace_norm(_component(rho_ab.matrix, gen.index_eigenvalues, j).op) > threshold
    }


def vin_projector(gen: BipartiteGenerator, index: int) -> int:
    """Number of positions (|n+index, m>, |n, m>) whose coefficients feed the local mode.

    n runs over [0, d-1-index] and m over [0, d-1], so there are (d-index)*d.
    """
    _check_local_index(gen.local, index)
    return (gen.dim - index) * gen.dim


def vin_block_dim(gen: BipartiteGenerator, index: int, c: int) -> int:
    """Number of surviving positions whose column ket |n, m> has n + m = c.

    These are the n in [max(0, c-d+1), min(d-1-index, c)], where m = c - n stays in range.
    """
    d = gen.dim
    return max(0, min(d - index - 1, c) - max(0, c - d + 1) + 1)


def lrd_decompose(mode: ModeOperator, gen: BipartiteGenerator) -> list:
    """Split a bipartite mode into its eigenspace-pair restrictions, as (c, block) pairs.

    Rows of a block live in the eigenspace with eigenvalue c + index, columns
    in the one with eigenvalue c; under a block-diagonal unitary each block
    transforms on its own as V_{c+index} (block) V_c^dagger. The blocks cover
    every entry of the mode exactly once; stacking them back into their
    row/column positions reassembles the mode.
    """
    if mode.dim != gen.total_dim:
        raise ValueError(
            f"mode dimension {mode.dim} does not match generator dimension {gen.total_dim}"
        )
    blocks = []
    for c in range(gen.n_eigenvalues):
        if not 0 <= c + mode.index < gen.n_eigenvalues:
            continue
        rows = gen.block_indices(c + mode.index)
        cols = gen.block_indices(c)
        blocks.append((c, mode.op[np.ix_(rows, cols)]))
    return blocks


def reassemble_lrd(blocks: list, gen: BipartiteGenerator, index: int) -> np.ndarray:
    """Place the (c, block) pairs of ``lrd_decompose`` back at their global positions."""
    out = np.zeros((gen.total_dim, gen.total_dim), dtype=complex)
    for c, block in blocks:
        rows = gen.block_indices(c + index)
        cols = gen.block_indices(c)
        out[np.ix_(rows, cols)] = block
    return out
