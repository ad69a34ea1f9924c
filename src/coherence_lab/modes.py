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
        off_support = op[eigs[:, None] - eigs != self.index]
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


def _padded_flat(x: np.ndarray, lead: int = 0) -> np.ndarray:
    """``x`` flattened past its first ``lead`` axes, then one zero: what every gather reads, its last index "no entry"."""
    return np.concatenate((x.reshape(x.shape[:lead] + (-1,)), np.zeros(x.shape[:lead] + (1,), x.dtype)), -1)


def _stripe_blocks(joint: np.ndarray, d: int, index: int) -> np.ndarray:
    """The eigenspace-pair blocks X_{c+index,c} of a joint matrix, zero-padded to (pairs, d, d)."""
    where, _, spans = _pair_blocks_layout(d)
    return _padded_flat(joint)[where[spans[index]]]


def _two_copy_blocks(matrix: np.ndarray, index: int) -> np.ndarray:
    """``_stripe_blocks`` of matrix (x) matrix at a local gap, bit for bit, as products of two entries of ``matrix``; no d^4 array is built."""
    (maps, _, spans), flat = _gap_layout(len(matrix)), _padded_flat(matrix)
    return flat[maps[0, spans[index - 1]]] * flat[maps[1, spans[index - 1]]]


@functools.cache
def _hessian_layout(d: int, index: int) -> tuple:
    """P, and read-only maps: (slots, (levels + 1) P + entries) places and weights, in the float view of F[n, c] = w_n A_c
    and a zero, of v_nk = Im(w_n J_nk), of G_k = Re sum_n w_n J_nk and of H1's nonzero entries k <= l; their places in H
    (k P + l, and l P + k off the diagonal); and the entry each place reads. H = H1 + sum_n v_n v_n^T / |z_n|, since to
    second order A_c moves to A_c + i (K_{c+j} A_c - A_c K_c) + K_{c+j} A_c K_c - 1/2 K_{c+j}^2 A_c - 1/2 A_c K_c^2 and
    |z + dz| to |z| + Re(w dz) + Im(w dz)^2 / (2 |z|). E_k, coordinate k's generator in block b, is one diagonal entry 1,
    or (r, c) and (c, r) of modulus 2^-1/2 and phase 1, or i and -i for an imaginary part. J_nk = i [E_k A_{b-j} - A_b
    E_k] and H1 = Re sum_n w_n [cross terms E_k A_c E_l, k in block c + j and l in c, and same-block terms -1/2 ((E_k E_l
    + E_l E_k) A_{b-j} + A_b (E_k E_l + E_l E_k))], all at (n + j, n), are sums of terms found by index arithmetic; the
    first-order terms serve v and, turned by i, G (at most 4 to a column); terms at one place merge.
    """
    cell, _, imag, _ = _generator_coords(d)
    p, pairs, levels = cell.size, 2 * d - 1 - index, d - index
    b, r, c = np.unravel_index(cell, (2 * d - 1, d, d))
    # each generator's two entries, the second with phase 0 on the diagonal, and its modulus 0.5 ** half
    rows, cols, phase = np.stack((r, c), -1), np.stack((c, r), -1), np.where(imag[:, None], [1j, -1j], np.stack((r == r, r != c), -1))
    half, found, first = (r != c) / 2, [], (levels + 1) * p

    def add(valid, entry, n, pair, row, col, coef):
        valid, entry, place, coef = np.broadcast_arrays(valid, entry, ((n * pairs + pair) * d + row) * d + col, coef)
        found.append((entry[valid], place[valid], coef[valid]))

    n, k, e = np.arange(levels)[:, None, None], np.arange(p)[:, None], np.arange(2)
    # E_k A_{b-j} and A_b E_k at (n + j, n): Im(w J) = Re(-i w J) is v's term, Re(w J) G's
    for valid, pair, row, col, coef in (
        ((rows[k, e] == n + index) & (b[k] >= index), b[k] - index, cols[k, e], n, phase[k, e] * 0.5 ** half[k]),
        ((cols[k, e] == n) & (b[k] < pairs), b[k], n + index, rows[k, e], -phase[k, e] * 0.5 ** half[k]),
    ):
        add(valid, n * p + k, n, pair, row, col, coef)
        add(valid, levels * p + k, n, pair, row, col, 1j * coef)
    k, l, ek, el = np.arange(p)[:, None, None, None], np.arange(p)[:, None, None], np.arange(2)[:, None], np.arange(2)
    entry, coef = first + np.minimum(k, l) * p + np.maximum(k, l), phase[k, ek] * phase[l, el] * 0.5 ** (half[k] + half[l])
    add((b[k] == b[l] + index) & (b[l] < pairs) & (rows[k, ek] == cols[l, el] + index), entry, cols[l, el], b[l], cols[k, ek], rows[l, el], coef)
    # each ordered product E_k E_l once for the entry {k, l}, twice for {k, k}
    same, y, x, coef = (b[k] == b[l]) & (cols[k, ek] == rows[l, el]), rows[k, ek], cols[l, el], coef * np.where(k == l, -1.0, -0.5)
    add(same & (y >= index) & (b[k] >= index), entry, y - index, b[k] - index, x, y - index, coef)
    add(same & (x < levels) & (b[k] < pairs), entry, x, b[k], x + index, y, coef)
    # Re(coef F) = Re(coef) Re F - Im(coef) Im F; terms at one place of one entry merge in order, and those that cancel drop out
    (entry, place, coef), pad = map(np.concatenate, zip(*found)), 2 * levels * pairs * d * d
    keys, merge = np.unique(np.concatenate((entry * pad + 2 * place, entry * pad + 2 * place + 1)), return_inverse=True)
    weight = np.bincount(merge, np.concatenate((coef.real, -coef.imag)), keys.size)
    (at, spot), weight = np.divmod(keys[weight != 0], pad), weight[weight != 0]
    # every v and G entry has a column, an H1 entry one if a term is left; a term's slot is its rank in its column
    slot = np.arange(at.size) - np.searchsorted(at, at)
    columns = np.concatenate((np.arange(first), at[(slot == 0) & (at >= first)]))
    where, weights = np.full((slot.max(initial=0) + 1, columns.size), pad), np.zeros((slot.max(initial=0) + 1, columns.size))
    where[slot, np.searchsorted(columns, at)], weights[slot, np.searchsorted(columns, at)] = spot, weight
    k, l = np.divmod(columns[first:] - first, p)
    maps = where, weights, np.concatenate((k * p + l, (l * p + k)[k != l])), np.concatenate((np.arange(k.size), np.flatnonzero(k != l)))
    for m in maps:
        m.setflags(write=False)
    return p, *maps


def _stripe_measure(units: np.ndarray, blocks: np.ndarray) -> tuple:
    """Gap-j measure f of the first marginal of U X U^dagger, its gradient's generator coordinates G, and its Hessian H.

    ``units`` are padded block unitaries (``_padded_units``), whose leading
    axes are stack axes; ``blocks`` are the gap-j ``_stripe_blocks``, 2d - 1 - j
    pairs, so j is how many fewer than the blocks of ``units``, also with no pair (d = 1). Row and column n of
    every padded block hold a ket of first-system level n, so with
    A_c = U_{c+j} X_c U_c^dagger the marginal entry (n + j, n) is
    z_n = sum_c A_c[n + j, n], and f = sum_n |z_n|. w_n = conj(z_n) / |z_n|,
    or conj(z_n) where |z_n| is 0 or subnormal (1 / |z_n| overflows). Under
    U_b <- exp(i K(x)) U_b, G is the (..., P) ``_generator_coords`` gradient and
    H the (..., P, P) Hessian of f at x = 0; both come from one gather of
    F = w_n A_c (``_hessian_layout``): G_k = Re sum_n w_n J_nk from the
    first-order terms that also give H's v_nk = Im(w_n J_nk). z_n adds its
    terms strictly in order, which ``sum`` over the pair axis does not at
    d = 4, so each point is the same bits in any stack.
    """
    d, pairs = units.shape[-1], blocks.shape[-3]
    j = units.shape[-3] - pairs
    a = units[..., j : j + pairs, :, :] @ blocks @ units[..., :pairs, :, :].conj().swapaxes(-1, -2)
    stripe = a.diagonal(-j, -2, -1)
    # with no pair (j > 2d - 2, as for a joint state of d = 1) there is no level n either
    z = np.add.accumulate(stripe, -2)[..., -1, :] if pairs else stripe.sum(-2)
    size = np.abs(z)
    w = z.conj() / np.where(size < _TINY, 1.0, size)
    lead, p, where, weight, places, expand = a.shape[:-3], *_hessian_layout(d, j)
    flat = _padded_flat(w[..., :, None, None, None] * a[..., None, :, :, :], len(lead)).view(float)
    sums = flat.take(where[0], -1) * weight[0]
    for place, factor in zip(where[1:], weight[1:]):
        sums += flat.take(place, -1) * factor
    first = (d - j + 1) * p
    v = sums[..., : first - p].reshape(*lead, d - j, p) / np.sqrt(np.where(size < _TINY, np.inf, size))[..., None]
    # copies, so the gathers are freed before the P x P product and few temporaries live at once
    grad, total = sums[..., first - p : first].copy(), sums[..., first:].take(expand, -1)
    del flat, sums
    # sum_n v_n v_n^T / |z_n| is exactly symmetric, and H1 adds the same bits at (k, l) and (l, k)
    h = v.swapaxes(-1, -2) @ v
    total += h.reshape(*lead, -1).take(places, -1)
    h.reshape(*lead, -1)[..., places] = total
    return size.sum(-1), grad, h


def mode_component(rho: DensityMatrix, op: NumberOperator, index: int) -> ModeOperator:
    """Stripe of rho connecting eigenvalues that differ by ``index``."""
    _check_local_index(op, index, rho, lowest=1 - op.dim)
    return _component(rho.matrix, op.eigenvalues, index)


def _component(matrix: np.ndarray, eigenvalues: np.ndarray, index: int) -> ModeOperator:
    eigs = np.asarray(eigenvalues, dtype=int)
    return ModeOperator(index, np.where(eigs[:, None] - eigs == index, matrix, 0.0), eigs)


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
    """Where to gather every eigenspace-pair block X_{c+g,c} of a d^2 x d^2 matrix, its gap g, and each gap's span of blocks.

    Block k of ``joint.ravel()`` appended with one zero is ``flat[index[k]]``,
    padded as in ``_block_mask``: entry (n', n) is the coefficient of
    (|n', c + g - n'>, |n, c - n>), or zero where either ket does not exist;
    padding adds only zero singular values. Blocks run over g, then c, so gap
    g is the slice ``spans[g]``, and g = 2d - 1, which has no pair, an empty
    one. ``_stripe_blocks``, ``_gap_layout`` and ``bipartite_mode_set`` read them.
    """
    gaps, lows = np.array([(g, c) for g in range(2 * d - 1) for c in range(2 * d - 1 - g)]).T
    kets = _generator_layout(d)[0]
    rows, cols = kets[lows + gaps][:, :, None], kets[lows][:, None, :]
    index = np.where((rows < d * d) & (cols < d * d), rows * d * d + cols, d**4)
    index.setflags(write=False)
    gaps.setflags(write=False)
    edges = np.cumsum([0, *range(2 * d - 1, -1, -1)]).tolist()
    return index, gaps, tuple(map(slice, edges, edges[1:]))


@functools.cache
def _gap_layout(d: int) -> tuple:
    """The two-copy blocks of the local gaps j = 1..d - 1, as read-only factor maps and quota mask, and each gap's span of blocks.

    Entry (a d + b, a' d + b') of rho (x) rho is rho[a, a'] rho[b, b'], so each
    flat index of ``_pair_blocks_layout`` splits by ``divmod`` into where both
    factors sit in rho.ravel() plus a zero, (2, blocks, d, d); padding reads
    the zero. Row k of the mask marks the top singular values block k counts:
    one per position (|n + j, m>, |n, m>) the partial trace keeps, which sits
    at (n + j, n) and exists where both kets do.
    """
    index, _, spans = _pair_blocks_layout(d)
    start = spans[1].start
    where = index[start : spans[d - 1].stop]
    (a, a2), (b, b2) = np.divmod(np.divmod(where, d * d), d)
    maps = np.where(where == d**4, d * d, np.stack((a * d + a2, b * d + b2)))
    mask = np.zeros(where.shape[:2], dtype=bool)
    spans = tuple(slice(span.start - start, span.stop - start) for span in spans[1:d])
    for j, span in enumerate(spans, 1):
        mask[span] = np.arange(d) < (np.diagonal(where[span], -j, 1, 2) < d**4).sum(1, keepdims=True)
    for m in (maps, mask):
        m.setflags(write=False)
    return maps, mask, spans


def bipartite_mode_set(rho_ab: DensityMatrix, gen: BipartiteGenerator) -> set:
    """Non-negative total-gap indices present in a two-system state.

    The eigenspace-pair blocks X_{c+g,c} of the gap-g component have disjoint
    rows and disjoint columns, so its trace norm is the sum of their singular
    values; the d^2 x d^2 component is never built.
    """
    _check_joint_dim(rho_ab, gen)
    index, gaps, _ = _pair_blocks_layout(gen.dim)
    spectra = np.linalg.svd(_padded_flat(rho_ab.matrix)[index], compute_uv=False)
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
