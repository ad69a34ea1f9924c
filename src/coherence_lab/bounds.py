"""Upper bounds on concentratable coherence and the correlation no-go test.

Both bounds compare what two copies of a state could at best deliver into one
subsystem against what the subsystem already has. The first bound applies a
Ky-Fan norm to the whole two-copy mode; the second applies it per
eigenspace-pair block, exploiting that the blocks evolve independently. The
no-go check inspects which total-gap modes a joint state occupies: when only
gaps outside the local range (and the symmetric gap 0) are present, no
covariant operation can create local coherence, even though such states are
necessarily correlated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .modes import (
    _check_joint_dim,
    _check_local_index,
    _local_gap_measure,
    _stripe_blocks,
    _stripe_quotas,
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

    def to_json(self) -> dict:
        return {
            "j": self.index,
            "bound1": self.bound1,
            "bound2": self.bound2,
            "baseline": self.baseline,
            "achieved": self.achieved,
            "tighter": self.tighter,
        }


def _block_spectra(rho: DensityMatrix, op: NumberOperator, index: int) -> tuple:
    """Both bounds and the baseline from the block spectra of the two-copy mode.

    The eigenspace-pair blocks of the gap-``index`` mode of rho (x) rho sit on
    disjoint rows and columns, so the mode's singular values are exactly the
    union of the block singular values. Bound 2 sums each block's top values
    up to the block's own count of surviving positions; bound 1 is the top-k
    sum of the union, with k the total count. The blocks' zero padding adds
    only zero values, and no count exceeds its block's smaller dimension, so
    the padding changes neither sum. Returns (bound1, bound2, baseline).
    """
    _check_local_index(op, index, rho)
    # the product of two validated states is a valid state; no re-validation
    spectra = np.linalg.svd(_stripe_blocks(np.kron(rho.matrix, rho.matrix), rho.dim, index), compute_uv=False)
    quotas = _stripe_quotas(rho.dim, index)
    quota_total = sum(float(values[:quota].sum()) for values, quota in zip(spectra, quotas))
    global_total = float(np.sort(spectra, axis=None)[::-1][: quotas.sum()].sum())
    baseline = _local_gap_measure(rho.matrix, index)
    return global_total - baseline, quota_total - baseline, baseline


def bound_kyfan_global(rho: DensityMatrix, op: NumberOperator, index: int) -> float:
    """Ky-Fan bound from the whole two-copy mode.

    The Ky-Fan order is the number of two-copy basis positions that survive the
    partial trace into the local mode.
    """
    return _block_spectra(rho, op, index)[0]


def bound_kyfan_lrd(rho: DensityMatrix, op: NumberOperator, index: int) -> float:
    """Ky-Fan bound summed per eigenspace-pair block of the two-copy mode.

    Each block gets the Ky-Fan order equal to its own count of surviving
    positions; blocks with no surviving position contribute nothing. Orders
    are clamped to the block's smaller dimension.
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
