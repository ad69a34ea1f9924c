"""Mode decomposition of states with respect to a number operator.

A mode groups the matrix elements that connect eigenvalue pairs with one fixed
gap. Modes evolve independently under unitaries that commute with the
generator, which is what makes them the right bookkeeping unit for coherence
accounting. Locally the gap of entry (r, c) is simply r - c; for a two-system
state the gaps are taken with respect to the total number operator, so entries
are grouped by (n + m) differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import StateValidationError, UnsupportedParameterError
from .states import BipartiteGenerator, DensityMatrix, NumberOperator, _generator_layout

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


def _check_joint_dim(joint, gen: BipartiteGenerator) -> None:
    """Reject a joint state or mode whose dimension is not the generator's d^2."""
    if joint.dim != gen.total_dim:
        raise ValueError(f"joint dimension {joint.dim} does not match generator dimension {gen.total_dim}")


@functools.cache
def _stripe_layout(d: int, index: int) -> tuple:
    """Eigenspace pairs (c + index, c) of the gap-``index`` stripe of two d-level systems.

    Pair c is (c + index, upper, lower, rows, cols, span): the read-only tensor
    indices of eigenspaces c + index and c, the places ``rows`` and ``cols`` in
    them of the positions (|n + index, m>, |n, m>) with n + m = c that survive
    the partial trace, and the n in ``span`` these feed. ``index`` runs over [0, d].
    """
    blocks = _generator_layout(d)[0]
    pairs = []
    for c in range(2 * d - 1 - index):
        lo, hi = max(0, c - d + 1), min(d - 1 - index, c)
        shift = index - max(0, c + index - d + 1)
        rows, cols = slice(lo + shift, hi + 1 + shift), slice(0, hi + 1 - lo)
        pairs.append((c + index, blocks[c + index], blocks[c], rows, cols, slice(lo, hi + 1)))
    return tuple(pairs)


def _stripe_blocks(pairs: tuple, joint: np.ndarray) -> list:
    """The eigenspace-pair blocks X_{c+j,c} of a joint matrix, one per pair."""
    return [joint[np.ix_(upper, lower)] for _, upper, lower, *_ in pairs]


def _stripe_measure(pairs: tuple, units, blocks, parts: np.ndarray, touched=None) -> np.ndarray:
    """Gap-j measure of the first marginal of U X U^dagger, U block diagonal over ``units``.

    Row c of ``parts`` (..., pairs, d - j) holds pair c's share of the stripe:
    z_n sums (U_{c+j} X_{c+j,c} U_c^dagger)[(n + j, m), (n, m)] over m = c - n.
    Only the rows ``touched`` (default all) are rewritten. Leading axes of
    ``units`` and ``parts`` are stack axes, one measure per stacked unitary.
    """
    for c in range(len(pairs)) if touched is None else touched:
        up, _, _, rows, cols, span = pairs[c]
        product = (units[up][..., rows, :] @ blocks[c]) * units[c][..., cols, :].conj()
        parts[..., c, span] = product.sum(-1)
    return np.abs(parts.sum(-2)).sum(-1)


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
    _check_joint_dim(rho_ab, gen)
    if abs(index) > 2 * gen.dim - 2:
        raise UnsupportedParameterError(
            f"mode index {index} outside the range of the total number operator"
        )
    return _component(rho_ab.matrix, gen.index_eigenvalues, index)


@functools.cache
def _pair_blocks_layout(d: int) -> tuple:
    """Where to gather every eigenspace-pair block X_{c+g,c} of a d^2 x d^2 matrix, and its gap g.

    Block k of ``joint.ravel()`` appended with one zero is ``flat[index[k]]``,
    zero-padded to d x d; padding adds only zero singular values.
    """
    blocks = _generator_layout(d)[0]
    n = d * d
    pairs = [(g, blocks[c + g], blocks[c]) for g in range(len(blocks)) for c in range(len(blocks) - g)]
    index = np.full((len(pairs), d, d), n * n)
    for k, (_, rows, cols) in enumerate(pairs):
        index[k, : rows.size, : cols.size] = rows[:, None] * n + cols
    gaps = np.array([g for g, _, _ in pairs])
    index.setflags(write=False)
    gaps.setflags(write=False)
    return index, gaps


def bipartite_mode_set(
    rho_ab: DensityMatrix, gen: BipartiteGenerator, threshold: float = MODE_PRESENCE_THRESHOLD
) -> set:
    """Non-negative total-gap indices present in a two-system state.

    The eigenspace-pair blocks X_{c+g,c} of the gap-g component have disjoint
    rows and disjoint columns, so its trace norm is the sum of their singular
    values; the d^2 x d^2 component is never built.
    """
    _check_joint_dim(rho_ab, gen)
    index, gaps = _pair_blocks_layout(gen.dim)
    stack = np.append(rho_ab.matrix.ravel(), 0.0)[index]
    norms = np.bincount(gaps, np.linalg.svd(stack, compute_uv=False).sum(-1))
    return {g for g, norm in enumerate(norms) if norm > threshold}


def vin_projector(gen: BipartiteGenerator, index: int) -> int:
    """Number of positions (|n+index, m>, |n, m>) whose coefficients feed the local mode.

    n runs over [0, d-1-index] and m over [0, d-1], so there are (d-index)*d.
    """
    _check_local_index(gen.local, index)
    return (gen.dim - index) * gen.dim


def vin_block_dim(gen: BipartiteGenerator, index: int, c: int) -> int:
    """Number of surviving positions whose column ket |n, m> has n + m = c.

    Read from the stripe layout; an eigenvalue with no pair (c + index, c) has none.
    """
    _check_local_index(gen.local, index)
    pairs = _stripe_layout(gen.dim, index)
    return pairs[c][-1].stop - pairs[c][-1].start if 0 <= c < len(pairs) else 0


def lrd_decompose(mode: ModeOperator, gen: BipartiteGenerator) -> list:
    """Split a bipartite mode into its eigenspace-pair restrictions, as (c, block) pairs.

    Rows of a block live in the eigenspace with eigenvalue c + index, columns
    in the one with eigenvalue c; under a block-diagonal unitary each block
    transforms on its own as V_{c+index} (block) V_c^dagger. The blocks cover
    every entry of the mode exactly once; stacking them back into their
    row/column positions reassembles the mode.
    """
    _check_joint_dim(mode, gen)
    n, j = gen.n_eigenvalues, mode.index
    return [
        (c, mode.op[np.ix_(gen.block_indices(c + j), gen.block_indices(c))])
        for c in range(max(0, -j), min(n, n - j))
    ]
