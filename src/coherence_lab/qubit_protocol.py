"""Closed-form qubit coherence concentration and the multi-copy concatenation protocol.

Two copies of a qubit admit a single nontrivial free rotation: the one acting
inside the degenerate {|01>, |10>} subspace of the total number operator. The
optimal angle and the resulting gain in the off-diagonal magnitude have closed
forms, and feeding pairs of outputs back into the same step gives a recurrence
on the Bloch vector whose behaviour this module exposes: monotone trajectories,
a purity ceiling on the reachable coherence, and input states whose
output/input coherence ratio grows without bound.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import UnsupportedParameterError
from .modes import _local_gap_measure
from .states import (
    BLOCH_NORM_ATOL,
    AllowedUnitary,
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
)

#: matching tolerance between the closed forms and direct two-copy simulation
SIMULATION_ATOL = 1e-10
#: trajectory monotonicity slack for floating-point rounding
MONOTONE_ATOL = 1e-12
#: factor realizing the "much smaller than" requirement in the amplification construction
AMPLIFICATION_MARGIN = 1e-3
#: smallest representable transverse component before the construction degenerates
AMPLIFICATION_FLOOR = 1e-300
#: default step cap and |nz| convergence threshold of ``run_concatenation``
MAX_STEPS = 1_000_000
CONVERGENCE_EPS = 1e-3
#: ``vector_field`` computes its rows in chunks of about this many grid points
FIELD_CHUNK = 2048
#: most CSV rows one command may write: ``vector_field``'s grid points (93 B a row, about
#: 0.93 GB and a minute), and ``concat``'s starts times ``MAX_STEPS`` + 1 (106 B a row)
MAX_ROWS = 10_000_000


@dataclass(frozen=True)
class ConcentrationResult:
    """Optimal single-step concentration: angle, gain, and the unitary used."""

    theta_opt: float
    delta_m: float
    unitary: AllowedUnitary

    def __post_init__(self) -> None:
        if self.delta_m < 0:
            raise ValueError(f"concentration gain must be non-negative, got {self.delta_m}")
        if not 0.0 <= self.theta_opt <= math.pi / 2.0:
            raise ValueError(f"rotation angle {self.theta_opt} outside [0, pi/2]")


class _Steps(Sequence):
    """Read-only view of a trajectory's arrays: indexing builds a ``BlochState``, slicing gives a view."""

    __slots__ = ("_nx", "_nz")

    def __init__(self, nx: np.ndarray, nz: np.ndarray) -> None:
        self._nx, self._nz = nx, nz

    def __len__(self) -> int:
        return len(self._nx)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Steps(self._nx[index], self._nz[index])
        return BlochState(float(self._nx[index]), 0.0, float(self._nz[index]))


def _readonly_floats(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


def _rises(values: np.ndarray) -> bool:
    """Whether some entry exceeds the one before it by more than the monotonicity slack."""
    return bool(np.any(values[1:] > values[:-1] + MONOTONE_ATOL))


@dataclass(frozen=True, eq=False)
class ConcatTrace:
    """Trajectory of the concatenation protocol through the Bloch sphere.

    ``nx`` and ``nz`` hold the canonical components (ny = 0) after every
    layer, step 0 being the start; ``steps`` views them as ``BlochState``s.
    ``stop_reason`` is "converged" (|nz| fell below the threshold at the
    last step, ``converged_at``), "fixed point" (a step left the state
    unchanged) or "step cap".
    """

    nx: np.ndarray
    nz: np.ndarray
    stop_reason: str

    def __post_init__(self) -> None:
        nx, nz = _readonly_floats(self.nx), _readonly_floats(self.nz)
        if nx.ndim != 1 or nx.shape != nz.shape or not nx.size:
            raise ValueError(
                f"trajectory arrays must be 1-D, non-empty and of equal length, got {nx.shape} and {nz.shape}"
            )
        if self.stop_reason not in ("converged", "fixed point", "step cap"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if _rises(-np.abs(nx)):
            raise ValueError("transverse component decreased along the trace")
        if _rises(np.square(nz)):
            raise ValueError("squared z component increased along the trace")
        if _rises(np.hypot(nx, nz)):
            raise ValueError("Bloch norm increased along the trace")
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nz", nz)

    @property
    def converged_at(self) -> int | None:
        """The last step when the trace converged, else None."""
        return len(self.nx) - 1 if self.stop_reason == "converged" else None

    @property
    def steps(self) -> Sequence:
        """The trajectory as a read-only sequence of ``BlochState``s, built on indexing."""
        return _Steps(self.nx, self.nz)

    @property
    def copies_consumed(self) -> tuple:
        """Input copies used by each step: 2^m at step m."""
        return tuple(1 << m for m in range(len(self.nx)))


def optimal_concentration(rho: DensityMatrix) -> ConcentrationResult:
    """Best achievable increase of the off-diagonal magnitude from two copies of a qubit.

    The closed-form gain is |p01| (sqrt(1+(2 p00 - 1)^2) - 1). It is checked
    before returning against a direct simulation: build the two-copy state,
    conjugate, trace out the partner system.
    """
    if rho.dim != 2:
        raise UnsupportedParameterError(f"expected a qubit state, got dimension {rho.dim}")
    p00 = float(rho.matrix[0, 0].real)
    p01 = complex(rho.matrix[0, 1])
    v = 2.0 * p00 - 1.0
    scale = math.sqrt(1.0 + v * v)
    delta_m = abs(p01) * (scale - 1.0)
    theta_opt = math.acos(1.0 / scale)
    # the rotation by theta_opt in the middle degenerate block, in the sense of the sign of v
    cos_t, sin_t = 1.0 / scale, v / scale
    block = np.array([[cos_t, -sin_t], [sin_t, cos_t]], dtype=complex)
    eye = np.eye(1, dtype=complex)
    unitary = AllowedUnitary(BipartiteGenerator(NumberOperator(2)), (eye, block, eye))

    u = unitary.matrix
    reduced = linalg.partial_trace_b(u @ np.kron(rho.matrix, rho.matrix) @ u.conj().T, 2, 2)
    simulated_gain = _local_gap_measure(reduced, 1) - abs(p01)
    if abs(simulated_gain - delta_m) > SIMULATION_ATOL:
        raise RuntimeError(
            f"closed form and two-copy simulation disagree: {delta_m} vs {simulated_gain}"
        )
    return ConcentrationResult(theta_opt, delta_m, unitary)


def recurrence_step(state: BlochState) -> BlochState:
    """One concatenation layer in Bloch form.

    The free z-rotation is absorbed first (ny is forced to 0), then
        nz <- nz - nz nx^2 / (1 + nz^2)
        nx <- nx sqrt(1 + nz^2).
    Matches the direct two-copy simulation under the optimal unitary.
    """
    x, z = math.hypot(state.nx, state.ny), state.nz
    denom = 1.0 + z * z
    return BlochState(x * math.sqrt(denom), 0.0, z - z * x * x / denom)


def run_concatenation(
    start: BlochState,
    max_steps: int = MAX_STEPS,
    convergence_eps: float = CONVERGENCE_EPS,
) -> ConcatTrace:
    """Iterate the recurrence from a starting state.

    Records the canonicalized state after every layer. ``converged_at`` is the
    first step whose |nz| falls below ``convergence_eps``; it stays None when
    the step cap or a fixed point is reached first (near-axis starting points
    converge slowly), and ``stop_reason`` says which.
    """
    if max_steps < 1:
        raise UnsupportedParameterError(f"max_steps must be at least 1, got {max_steps}")
    if not convergence_eps >= 0.0:
        raise UnsupportedParameterError(f"convergence_eps must be non-negative, got {convergence_eps}")
    current = BlochState(math.hypot(start.nx, start.ny), 0.0, start.nz)
    nx, nz = array("d", [current.nx]), array("d", [current.nz])
    stop_reason = "converged" if abs(current.nz) < convergence_eps else None
    while stop_reason is None and len(nx) <= max_steps:
        nxt = recurrence_step(current)
        nx.append(nxt.nx)
        nz.append(nxt.nz)
        if abs(nxt.nz) < convergence_eps:
            stop_reason = "converged"
        elif nxt.nx == current.nx and nxt.nz == current.nz:
            # exact fixed point (ny is 0 on both): no further progress is possible
            stop_reason = "fixed point"
        current = nxt
    views = np.frombuffer(nx), np.frombuffer(nz)
    for view in views:
        view.setflags(write=False)
    return ConcatTrace(*views, stop_reason or "step cap")


def purity_ceiling(rho: DensityMatrix) -> float:
    """Largest off-diagonal magnitude any number of concatenation layers can reach.

    Equals sqrt(2 tr(rho^2) - 1), the Bloch 2-norm of the starting state.
    """
    if rho.dim != 2:
        raise UnsupportedParameterError(f"expected a qubit state, got dimension {rho.dim}")
    radicand = 2.0 * rho.purity() - 1.0
    return math.sqrt(max(radicand, 0.0))


def _amplification_components(n_layers: int, epsilon: float) -> tuple:
    nz = 2.0 ** (-epsilon / (2.0 * n_layers))
    transverse_sq = (
        AMPLIFICATION_MARGIN
        * 4.0 ** (-n_layers)
        / (2.0 * n_layers)
        * min(1.0 - nz * nz, nz * nz)
    )
    return math.sqrt(transverse_sq), nz


def amplification_state(n_layers: int, epsilon: float) -> BlochState:
    """Starting state whose coherence ratio after n_layers steps exceeds 2^(-epsilon) sqrt(2^n_layers).

    The z component is placed just below 1 (n_layers * |log2 nz| <= epsilon) and
    the transverse component is suppressed far below 2^(-n_layers), so the
    initial coherence is tiny while each layer nearly doubles its square.
    """
    if n_layers < 1:
        raise UnsupportedParameterError(f"layer count must be at least 1, got {n_layers}")
    if not epsilon > 0.0:
        raise UnsupportedParameterError(f"epsilon must be positive, got {epsilon}")
    nx, nz = _amplification_components(n_layers, epsilon)
    if nx < AMPLIFICATION_FLOOR:
        # 4.0 ** -n is 0.0 for every n >= 538, so no larger count is feasible at any epsilon
        feasible = min(n_layers, 537)
        while feasible > 0 and _amplification_components(feasible, epsilon)[0] < AMPLIFICATION_FLOOR:
            feasible -= 1
        found = f"the largest feasible layer count is {feasible}" if feasible else "no layer count is feasible"
        raise UnsupportedParameterError(
            f"transverse component underflows double precision for {n_layers} layers; "
            f"{found} at epsilon={epsilon}"
        )
    if not nx < 2.0 ** (-n_layers):
        raise RuntimeError("constructed state violates its own coherence budget")
    return BlochState(nx, 0.0, nz)


def vector_field(radial: int, angular: int) -> Iterator[tuple]:
    """Displacement of one recurrence step on a polar grid over the quarter disc.

    Grid points are r in [0, 1] (``radial`` values) by angle in [0, pi/2]
    (``angular`` values) measured from the nx axis, so every point satisfies
    nx, nz >= 0 and norm <= 1, and both bounding axes are included. The grid
    is checked at once; the rows are float tuples (nx, nz, dnx, dnz) in
    row-major grid order. They are made in chunks of ``FIELD_CHUNK`` points,
    with the step computed on arrays, so memory does not grow with either
    grid axis. The floats equal those of ``recurrence_step`` on each point.
    A grid of more than ``MAX_ROWS`` points is refused.
    """
    if radial < 1 or angular < 1:
        raise UnsupportedParameterError("grid resolution must be at least 1 in each direction")
    if radial * angular > MAX_ROWS:
        raise UnsupportedParameterError(
            f"grid of {radial}x{angular} points exceeds the cap of {MAX_ROWS:,} points"
        )
    return _field_rows(radial, angular)


def _field_rows(radial: int, angular: int) -> Iterator[tuple]:
    # chunks of about FIELD_CHUNK points: whole radial rows, or pieces of one row
    rows, width = max(FIELD_CHUNK // angular, 1), min(angular, FIELD_CHUNK)
    bound = 1.0 + BLOCH_NORM_ATOL
    for i in range(0, radial, rows):
        r = _spaced(1.0, radial, np.arange(i, min(i + rows, radial)))[:, None]
        for a in range(0, angular, width):
            # math.cos/sin, not np.cos/sin, whose SIMD loops may round differently
            phis = _spaced(math.pi / 2.0, angular, np.arange(a, min(a + width, angular))).tolist()
            cos, sin = np.array([math.cos(phi) for phi in phis]), np.array([math.sin(phi) for phi in phis])
            # recurrence_step's operations in its order; x >= 0, so its hypot(x, 0) is x
            x, z = (r * cos).ravel(), (r * sin).ravel()
            denom = 1.0 + z * z
            nx, nz = x * np.sqrt(denom), z - z * x * x / denom
            # a NaN norm compares false too; the rows before the first point outside
            # stream out, then BlochState raises the error for each point outside
            outside = np.flatnonzero(~((np.hypot(x, z) <= bound) & (np.hypot(nx, nz) <= bound))).tolist()
            cols, first = (x, z, nx - x, nz - z), outside[0] if outside else len(x)
            yield from zip(*(col[:first].tolist() for col in cols))
            for k in outside:
                BlochState(float(x[k]), 0.0, float(z[k]))
                BlochState(float(nx[k]), 0.0, float(nz[k]))
            yield from zip(*(col[first:].tolist() for col in cols))


def _spaced(stop: float, num: int, index: np.ndarray) -> np.ndarray:
    """``np.linspace(0.0, stop, num)[index]``, bit for bit, without the other values."""
    return np.where(index < max(num - 1, 1), index * (stop / max(num - 1, 1)), stop)
