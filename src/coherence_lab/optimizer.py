"""Derivative-free maximization of the local coherence gain over block-diagonal unitaries.

This is the ground-truth oracle at small dimension: each degenerate eigenspace
block is parameterized by a Hermitian generator (an unconstrained real vector),
and a multi-restart coordinate pattern search climbs the gain of the local mode
measure after conjugating two copies of the state and tracing one system out.
The objective is a smooth composition except at singular-value crossings, so a
derivative-free method avoids subgradient bookkeeping at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedParameterError
from .modes import _check_local_index, _local_gap_measure, _reduced_first
from .sampling import as_rng, haar_unitary
from .states import AllowedUnitary, BipartiteGenerator, DensityMatrix, NumberOperator

#: search stops refining below this coordinate step
STEP_FLOOR = 1e-8
#: largest supported local dimension; the parameter count grows as the sum of
#: squared degeneracies (44 real parameters at dimension 4)
MAX_LOCAL_DIM = 4


@dataclass(frozen=True)
class UnitarySearchConfig:
    """Search budget and reproducibility knobs."""

    restarts: int = 8
    max_iters: int = 2000
    initial_step: float = 0.5
    step_decay: float = 0.5
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise UnsupportedParameterError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 1:
            raise UnsupportedParameterError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.tolerance <= 0:
            raise UnsupportedParameterError(f"tolerance must be positive, got {self.tolerance}")
        if not 0.0 < self.step_decay < 1.0:
            raise UnsupportedParameterError(f"step decay must lie in (0, 1), got {self.step_decay}")
        if self.initial_step <= 0:
            raise UnsupportedParameterError(f"initial step must be positive, got {self.initial_step}")


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Best gain found, the unitary achieving it, and per-restart bests."""

    best_delta_m: float
    best_unitary: AllowedUnitary
    history: tuple
    converged: bool

    def __post_init__(self) -> None:
        if self.best_delta_m < -1e-12:
            raise ValueError(f"best gain {self.best_delta_m} below the identity baseline")

    def to_json(self) -> dict:
        return {
            "best_delta_m": self.best_delta_m,
            "converged": self.converged,
            "history": list(self.history),
            "best_unitary": {
                "blocks": [
                    {"re": b.real.tolist(), "im": b.imag.tolist()}
                    for b in self.best_unitary.blocks
                ]
            },
        }


def _hermitian_from_params(n: int, params: np.ndarray) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    h[np.diag_indices(n)] = params[:n]
    k = n
    for r in range(n):
        for c in range(r + 1, n):
            h[r, c] = params[k] + 1j * params[k + 1]
            h[c, r] = params[k] - 1j * params[k + 1]
            k += 2
    return h


def _exp_ih(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h; closed forms below 3x3, eigendecomposition above."""
    n = h.shape[0]
    if n == 1:
        return np.array([[np.exp(1j * h[0, 0].real)]])
    if n == 2:
        mean = (h[0, 0].real + h[1, 1].real) / 2.0
        delta = (h[0, 0].real - h[1, 1].real) / 2.0
        b = h[0, 1]
        r = math.sqrt(delta * delta + (b * b.conjugate()).real)
        if r == 0.0:
            core = np.eye(2, dtype=complex)
        else:
            s = 1j * math.sin(r) / r
            core = np.array(
                [[math.cos(r) + s * delta, s * b], [s * b.conjugate(), math.cos(r) - s * delta]]
            )
        return np.exp(1j * mean) * core
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def parameterize_block(gen: BipartiteGenerator, eigenvalue_index: int, params) -> np.ndarray:
    """Unitary block exp(i H) for eigenspace ``eigenvalue_index``.

    ``params`` packs the Hermitian generator H: the diagonal first, then
    (real, imaginary) pairs of the upper triangle row by row; its length must
    be the squared block dimension.
    """
    n = gen.block_dim(eigenvalue_index)
    params = np.asarray(params, dtype=float)
    if params.shape != (n * n,):
        raise ValueError(
            f"expected {n * n} parameters for eigenspace {eigenvalue_index}, got {params.size}"
        )
    return _exp_ih(_hermitian_from_params(n, params))


def random_allowed_unitary(gen: BipartiteGenerator, rng) -> AllowedUnitary:
    """Independent Haar block per eigenspace; reproducible for a fixed seed."""
    rng = as_rng(rng)
    blocks = tuple(haar_unitary(gen.block_dim(c), rng) for c in range(gen.n_eigenvalues))
    return AllowedUnitary(gen, blocks)


def _pattern_search(objective, x0: np.ndarray, cfg: UnitarySearchConfig):
    """Greedy coordinate search with geometric step decay on stall.

    ``max_iters`` counts objective evaluations. Returns the best point, its
    value, and the best-so-far curve (one entry per evaluation).
    """
    x = x0.copy()
    fx = objective(x)
    evals = 1
    best_x, best_f = x.copy(), fx
    curve = [best_f]
    step = cfg.initial_step
    while evals < cfg.max_iters and step >= STEP_FLOOR:
        improved = False
        for i in range(x.size):
            if evals >= cfg.max_iters:
                break
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step
                fc = objective(cand)
                evals += 1
                if fc > fx:
                    x, fx = cand, fc
                    improved = True
                    if fc > best_f:
                        best_f, best_x = fc, cand.copy()
                    curve.append(best_f)
                    break
                curve.append(best_f)
                if evals >= cfg.max_iters:
                    break
        if not improved:
            step *= cfg.step_decay
    return best_x, best_f, curve


def maximize_delta_m(
    rho: DensityMatrix,
    op: NumberOperator,
    index: int,
    config: UnitarySearchConfig | None = None,
) -> SearchOutcome:
    """Search the block-diagonal unitaries for the largest local mode-measure gain.

    The objective conjugates two copies of ``rho``, traces out the partner
    system, and differences the local mode measure against the input's. The
    identity (all-zero parameters) seeds the first restart, so the result is
    never below zero beyond roundoff.
    """
    cfg = config or UnitarySearchConfig()
    d = rho.dim
    _check_local_index(op, index, rho)
    if d > MAX_LOCAL_DIM:
        raise UnsupportedParameterError(
            f"search supports local dimension up to {MAX_LOCAL_DIM}, got {d}"
        )
    gen = BipartiteGenerator(op)
    pair = np.kron(rho.matrix, rho.matrix)
    sizes = [gen.block_dim(c) for c in range(gen.n_eigenvalues)]
    meshes = [np.ix_(gen.block_indices(c), gen.block_indices(c)) for c in range(gen.n_eigenvalues)]
    offsets = np.concatenate(([0], np.cumsum([n * n for n in sizes])))
    n_params = int(offsets[-1])
    baseline = _local_gap_measure(rho.matrix, index)

    scratch = np.zeros((d * d, d * d), dtype=complex)

    def objective(params: np.ndarray) -> float:
        for c, n in enumerate(sizes):
            block = _exp_ih(_hermitian_from_params(n, params[offsets[c] : offsets[c + 1]]))
            scratch[meshes[c]] = block
        return _local_gap_measure(_reduced_first(scratch, pair, d), index) - baseline

    rng = as_rng(cfg.seed)
    best_f = None
    best_x = None
    best_curve = None
    history = []
    for restart in range(cfg.restarts):
        if restart == 0:
            x0 = np.zeros(n_params)
        else:
            x0 = rng.uniform(-math.pi, math.pi, n_params)
        x, fx, curve = _pattern_search(objective, x0, cfg)
        history.append(fx)
        if best_f is None or fx > best_f:
            best_f, best_x, best_curve = fx, x, curve
    blocks = tuple(
        _exp_ih(_hermitian_from_params(n, best_x[offsets[c] : offsets[c + 1]]))
        for c, n in enumerate(sizes)
    )
    stable_from = int(0.8 * (len(best_curve) - 1))
    converged = (best_curve[-1] - best_curve[stable_from]) <= cfg.tolerance
    return SearchOutcome(
        best_delta_m=float(best_f),
        best_unitary=AllowedUnitary(gen, blocks),
        history=tuple(history),
        converged=converged,
    )
