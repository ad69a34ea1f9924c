"""Upper bounds on concentratable coherence and the correlation no-go test.

Both bounds compare what two copies of a state could at best deliver into one
subsystem against what the subsystem already has. The first bound applies a
Ky-Fan norm to the whole two-copy mode; the second applies it per
eigenspace-pair block, exploiting that the blocks evolve independently. The
no-go check inspects which total-gap modes a joint state occupies: when only
gaps outside the local range (and the symmetric gap 0) are present, no
covariant operation can create local coherence, even though such states are
necessarily correlated. One pass per state, memoised on the state object,
serves the bounds of every gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .modes import (
    _check_joint_dim,
    _check_local_index,
    _gap_layout,
    _local_gap_measure,
    bipartite_mode_set,
)
from .states import BipartiteGenerator, DensityMatrix, NumberOperator

#: bounds closer than this are reported as a tie
TIE_ATOL = 1e-8
#: slack allowed when checking an upper bound against an achieved value
SOUNDNESS_ATOL = 1e-8

NO_GO = "no_go"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class BoundReport:
    """Both upper bounds for one mode index, next to the baseline and any achieved value."""

    index: int
    bound1: float
    bound2: float
    baseline: float
    achieved: float | None

    def __post_init__(self) -> None:
        for name, bound in (("global-mode", self.bound1), ("block-sum", self.bound2)):
            if self.achieved is not None and bound < self.achieved - SOUNDNESS_ATOL:
                raise ValueError(f"{name} bound {bound} fell below the achieved value {self.achieved}")

    @property
    def tighter(self) -> str:
        """The smaller bound, "bound1" or "bound2", or "tie" when they are within ``TIE_ATOL``."""
        if abs(self.bound1 - self.bound2) <= TIE_ATOL:
            return "tie"
        return "bound1" if self.bound1 < self.bound2 else "bound2"


def _block_spectra(rho: DensityMatrix, op: NumberOperator, index: int) -> tuple:
    """(bound1, bound2, baseline) of mode ``index``: entry index - 1 of the state's one pass over every gap (``_gap_bounds``)."""
    _check_local_index(op, index, rho)
    return _gap_bounds(rho)[index - 1]


@functools.lru_cache(maxsize=1)
def _gap_bounds(rho: DensityMatrix) -> tuple:
    """Both bounds and the baseline of every gap j = 1..d - 1, from one gather, one stacked SVD and one masked sum.

    The eigenspace-pair blocks of the gap-j mode of rho (x) rho sit on
    disjoint rows and columns, so the mode's singular values are exactly the
    union of the spectra of the blocks, gathered from rho's entries for every
    gap at once (``_gap_layout``). Bound 2 sums each block's top values up to
    its count of surviving positions (the table's mask); bound 1 is the top-k
    sum of the gap's union, k the total count. Padding adds only zero values,
    and no count exceeds its block's smaller dimension, so the padding changes
    neither sum. Memoised on the state object: ``DensityMatrix`` compares by
    identity and its matrix is read-only, so a sweep over j makes one pass.
    """
    maps, mask, spans = _gap_layout(rho.dim)
    spectra = np.linalg.svd(np.multiply(*np.append(rho.matrix.ravel(), 0.0)[maps]), compute_uv=False)
    # a block's masked zeros add after its own values, so each sum is exact; blocks add in order
    block_totals = np.where(mask, spectra, 0.0).sum(-1).tolist()
    out = []
    for j, span in enumerate(spans, 1):
        global_total = float(np.sort(spectra[span], axis=None)[::-1][: mask[span].sum()].sum())
        baseline = _local_gap_measure(rho.matrix, j)
        out.append((global_total - baseline, sum(block_totals[span]) - baseline, baseline))
    return tuple(out)


def bound_kyfan_global(rho: DensityMatrix, op: NumberOperator, index: int) -> float:
    """Ky-Fan bound from the whole two-copy mode.

    The Ky-Fan order is the number of two-copy basis positions that survive the
    partial trace into the local mode.
    """
    return _block_spectra(rho, op, index)[0]


def bound_kyfan_lrd(rho: DensityMatrix, op: NumberOperator, index: int) -> float:
    """Ky-Fan bound summed per eigenspace-pair block of the two-copy mode.

    Each block gets the Ky-Fan order equal to its own count of surviving
    positions; blocks with no surviving position contribute nothing. No order
    exceeds the block's smaller dimension: each counted column ket |n, c - n>
    maps one to one to the row ket |n + j, c - n>, so the block has at least
    as many rows as columns counted.
    """
    return _block_spectra(rho, op, index)[1]


def kyfan_diagonal_lemma_check(matrix: np.ndarray, selection, k: int) -> bool:
    """Whether the absolute row/column-distinct entries summed stay below the k-th Ky-Fan norm.

    ``selection`` lists (row, column) positions that must form a generalized
    diagonal: no row and no column may repeat, and at most k positions are
    allowed. Used as a randomized self-check; a False return would falsify the
    diagonal lemma.
    """
    m = linalg.as_matrix(matrix)
    positions = [(int(r), int(c)) for r, c in selection]
    rows = [r for r, _ in positions]
    cols = [c for _, c in positions]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("selection must not repeat a row or a column")
    if len(positions) > k:
        raise ValueError(f"selection has {len(positions)} entries, more than k={k}")
    total = float(sum(abs(m[r, c]) for r, c in positions))
    return total <= linalg.ky_fan_norm(m, k) + 1e-9


def _nogo_verdict(present: set, d: int) -> str:
    """The no-go rule on the total-gap mode set of a joint state of two d-level systems."""
    if present != {0} and not (present & set(range(1, d))):
        return NO_GO
    return NOT_APPLICABLE


def nogo_check(rho_ab: DensityMatrix, gen: BipartiteGenerator) -> str:
    """Mode-structure verdict on whether local coherence can ever be concentrated.

    Returns ``"no_go"`` when the joint state is coherent only across gaps too
    large to be seen locally (no occupied gap in [1, d-1] but some gap other
    than 0 occupied); ``"not_applicable"`` otherwise.
    """
    return _nogo_verdict(bipartite_mode_set(rho_ab, gen), gen.dim)


def marginal_product_distance(rho_ab: DensityMatrix, gen: BipartiteGenerator) -> float:
    """Trace-norm distance between a joint state and the product of its marginals."""
    _check_joint_dim(rho_ab, gen)
    d = gen.dim
    # the joint matrix is already validated; both marginals trace one view of it
    joint = rho_ab.matrix.reshape(d, d, d, d)
    rho_a = joint.trace(axis1=1, axis2=3)
    rho_b = joint.trace(axis1=0, axis2=2)
    return linalg.trace_norm(rho_ab.matrix - np.kron(rho_a, rho_b))


def bound_report(rho: DensityMatrix, op: NumberOperator, index: int, achieved: float | None = None) -> BoundReport:
    """Both bounds and the baseline for mode ``index``, next to ``achieved``; the report names the tighter one."""
    b1, b2, baseline = _block_spectra(rho, op, index)
    return BoundReport(index=index, bound1=b1, bound2=b2, baseline=baseline, achieved=achieved)
