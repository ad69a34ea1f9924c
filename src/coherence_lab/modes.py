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
from .states import BipartiteGenerator, DensityMatrix, NumberOperator, _generator_coords, _generator_layout

#: a mode counts as present when its trace norm exceeds this threshold,
#: separating structural zeros from roundoff
MODE_PRESENCE_THRESHOLD = 1e-10
#: smallest normal double; 1 / |z| overflows below it
_TINY = np.finfo(float).tiny


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
def _quota_mask(d: int, index: int) -> np.ndarray:
    """Per stripe pair c, which top singular values count: one per position (|n + index, m>, |n, m>) the partial trace keeps.

    They are the n in [0, d - 1 - index] with m = c - n in [0, d - 1]: the kets
    that exist among the first d - index of row c of ``_generator_layout``'s table.
    """
    quotas = (_generator_layout(d)[0][: 2 * d - 1 - index, : max(d - index, 0)] < d * d).sum(1)
    mask = np.arange(d) < quotas[:, None]
    mask.setflags(write=False)
    return mask


def _stripe_blocks(joint: np.ndarray, d: int, index: int) -> np.ndarray:
    """The eigenspace-pair blocks X_{c+index,c} of a joint matrix, zero-padded to (pairs, d, d)."""
    where, gaps = _pair_blocks_layout(d)
    return np.append(joint.ravel(), 0.0)[where[gaps == index]]


def _two_copy_blocks(matrix: np.ndarray, index: int) -> np.ndarray:
    """``_stripe_blocks`` of matrix (x) matrix, bit for bit, as products of two entries of ``matrix``; no d^4 array is built."""
    return np.multiply(*np.append(matrix.ravel(), 0.0)[_two_copy_layout(len(matrix), index)])


@functools.cache
def _gradient_layout(d: int, index: int) -> tuple:
    """Where each gradient coordinate reads ``_stripe_measure``'s products P1, P2, as a read-only (2, 2, P) index, and factor / 2.

    With S = i (P1 - P2) placed as the kernel says and R = P2 - P1, a real
    part is (Im R at its cell + Im R at the mirror) factor / 2 and an
    imaginary part (Re R at the mirror - Re R at the cell) factor / 2, the
    terms (S_rc + conj(S_cr)) / 2 adds, so the bits are the same. The index,
    [term][minuend, subtrahend], is into the float view of P1, P2 and a zero.
    """
    cell, mirror, imag, factor = _generator_coords(d)
    pairs, width = 2 * d - 1 - index, d - index
    size = pairs * d * width
    placed = np.full((2, 2 * d - 1, d, d), 2 * size)
    placed[0, :pairs, :width, :] = size + np.arange(size).reshape(pairs, width, d)
    placed[1, index:, :, index:] = np.arange(size).reshape(pairs, d, width)
    at_cell, at_mirror = (2 * placed.reshape(2, -1)[:, cells] + ~imag for cells in (cell, mirror))
    where = np.stack((np.where(imag, at_mirror, at_cell), np.where(imag, at_cell[::-1], at_mirror)))
    for m in (where, half := factor / 2):
        m.setflags(write=False)
    return where, half


def _stripe_measure(units: np.ndarray, blocks: np.ndarray) -> tuple:
    """Gap-j measure f of the first marginal of U X U^dagger, and its gradient's generator coordinates.

    ``units`` are padded block unitaries (``_padded_units``), whose leading
    axes are stack axes; ``blocks`` are the gap-j ``_stripe_blocks``, 2d - 1 - j
    pairs, so j is how many fewer than the blocks of ``units``, also with no pair (d = 1). Row and column n of
    every padded block hold a ket of first-system level n, so with
    A_c = U_{c+j} X_c U_c^dagger the marginal entry (n + j, n) is
    z_n = sum_c A_c[n + j, n], and f = sum_n |z_n|. W holds w_n = conj(z_n) / |z_n|
    at (n + j, n), or conj(z_n) where |z_n| is 0 or subnormal (1 / |z_n|
    overflows). Under U_b <- exp(i eps K) U_b, f rises by eps tr(G_b K) to
    first order, with G_b = herm(i A_{b-j} W^T) - herm(i W^T A_b), Hermitian.
    W^T has only w_n at (n, n + j), so A W^T moves column n of A to column
    n + j scaled by w_n, and W^T A moves row n + j to row n scaled by w_n;
    W is never built, nor is G: its (..., P) ``_generator_coords`` are read
    from the two products (``_gradient_layout``). z_n adds its terms strictly
    in order, which ``sum`` over the pair axis does not at d = 4, so each
    point is the same bits in any stack.
    """
    d, pairs = units.shape[-1], blocks.shape[-3]
    j = units.shape[-3] - pairs
    a = units[..., j : j + pairs, :, :] @ blocks @ units[..., :pairs, :, :].conj().swapaxes(-1, -2)
    stripe = a.diagonal(-j, -2, -1)
    # with no pair (j > 2d - 2, as for a joint state of d = 1) there is no level n either
    z = np.add.accumulate(stripe, -2)[..., -1, :] if pairs else stripe.sum(-2)
    size = np.abs(z)
    w = z.conj() / np.where(size < _TINY, 1.0, size)
    lead = a.shape[:-3]
    products = (a[..., : d - j] * w[..., None, None, :], w[..., None, :, None] * a[..., j:, :])
    flat = np.concatenate([p.reshape(*lead, -1) for p in products] + [np.zeros((*lead, 1), complex)], -1)
    where, half = _gradient_layout(d, j)
    terms = np.take(flat.view(float), where, axis=-1)
    terms = terms[..., 0, :] - terms[..., 1, :]
    return size.sum(-1), (terms[..., 0, :] + terms[..., 1, :]) * half


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
    padded as in ``_block_mask``: entry (n', n) is the coefficient of
    (|n', c + g - n'>, |n, c - n>), or zero where either ket does not exist;
    padding adds only zero singular values. Blocks run over g, then c;
    ``_stripe_blocks``, ``_two_copy_layout`` and ``bipartite_mode_set`` read them.
    """
    gaps, lows = np.array([(g, c) for g in range(2 * d - 1) for c in range(2 * d - 1 - g)]).T
    kets = _generator_layout(d)[0]
    rows, cols = kets[lows + gaps][:, :, None], kets[lows][:, None, :]
    index = np.where((rows < d * d) & (cols < d * d), rows * d * d + cols, d**4)
    index.setflags(write=False)
    gaps.setflags(write=False)
    return index, gaps


@functools.cache
def _two_copy_layout(d: int, index: int) -> np.ndarray:
    """Where both factors of each gap-``index`` block entry of rho (x) rho sit in rho.ravel() plus a zero, (2, pairs, d, d).

    Entry (a d + b, a' d + b') of rho (x) rho is rho[a, a'] rho[b, b'], so each
    flat index of ``_pair_blocks_layout`` splits by ``divmod``; padding reads the zero.
    """
    where = _pair_blocks_layout(d)[0][_pair_blocks_layout(d)[1] == index]
    (a, a2), (b, b2) = np.divmod(np.divmod(where, d * d), d)
    maps = np.where(where == d**4, d * d, np.stack((a * d + a2, b * d + b2)))
    maps.setflags(write=False)
    return maps


@functools.cache
def _gap_layout(d: int) -> tuple:
    """Every gap's ``_two_copy_layout`` and ``_quota_mask``, j = 1..d - 1, joined along the block axis (read-only), and each gap's span of blocks."""
    masks = [_quota_mask(d, j) for j in range(1, d)]
    edges = np.cumsum([0] + [len(m) for m in masks]).tolist()
    maps, mask = np.concatenate([_two_copy_layout(d, j) for j in range(1, d)], axis=1), np.concatenate(masks)
    for m in (maps, mask):
        m.setflags(write=False)
    return maps, mask, tuple(map(slice, edges, edges[1:]))


def bipartite_mode_set(rho_ab: DensityMatrix, gen: BipartiteGenerator) -> set:
    """Non-negative total-gap indices present in a two-system state.

    The eigenspace-pair blocks X_{c+g,c} of the gap-g component have disjoint
    rows and disjoint columns, so its trace norm is the sum of their singular
    values; the d^2 x d^2 component is never built.
    """
    _check_joint_dim(rho_ab, gen)
    index, gaps = _pair_blocks_layout(gen.dim)
    spectra = np.linalg.svd(np.append(rho_ab.matrix.ravel(), 0.0)[index], compute_uv=False)
    norms = np.bincount(gaps, spectra.sum(-1))
    return {g for g, norm in enumerate(norms) if norm > MODE_PRESENCE_THRESHOLD}


def vin_projector(gen: BipartiteGenerator, index: int) -> int:
    """Number of positions (|n+index, m>, |n, m>) whose coefficients feed the local mode.

    n runs over [0, d-1-index] and m over [0, d-1], so there are (d-index)*d.
    """
    _check_local_index(gen.local, index)
    return (gen.dim - index) * gen.dim


def lrd_decompose(mode: ModeOperator, gen: BipartiteGenerator) -> list:
    """Split a bipartite mode into its eigenspace-pair restrictions, as (c, block) pairs.

    Rows of a block live in the eigenspace with eigenvalue c + index, columns
    in the one with eigenvalue c; under a block-diagonal unitary each block
    transforms on its own as V_{c+index} (block) V_c^dagger. The blocks cover
    every entry of the mode exactly once; stacking them back into their
    row/column positions reassembles the mode. A negative index reads the
    pairs of gap -index transposed.
    """
    _check_joint_dim(mode, gen)
    blocks, gap = [gen.block_indices(c) for c in range(gen.n_eigenvalues)], abs(mode.index)
    if mode.index < 0:
        return [(c + gap, mode.op[np.ix_(blocks[c], blocks[c + gap])]) for c in range(len(blocks) - gap)]
    return [(c, mode.op[np.ix_(blocks[c + gap], blocks[c])]) for c in range(len(blocks) - gap)]
