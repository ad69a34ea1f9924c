"""Independent numeric oracles and state-file writers for the test suite.

Everything here is implemented from first principles with plain numpy loops
or textbook algorithms, deliberately avoiding the package's own code paths.
The one exception is ``sequential_search``: it drives the search oracle's own
objective one restart at a time, as a reference for the lockstep loop's
bookkeeping rather than for its kernels.
"""

import math

import numpy as np


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by its four-index definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def hermitian_from_params_loops(n: int, params: np.ndarray) -> np.ndarray:
    """Hermitian matrix from its diagonal, then (real, imaginary) upper-triangle pairs row by row."""
    h = np.zeros((n, n), dtype=complex)
    for r in range(n):
        h[r, r] = params[r]
    k = n
    for r in range(n):
        for c in range(r + 1, n):
            h[r, c] = params[k] + 1j * params[k + 1]
            h[c, r] = params[k] - 1j * params[k + 1]
            k += 2
    return h


def density_to_json(rho) -> dict:
    """State-file form {"dim": d, "re": [[...]], "im": [[...]]} of a density matrix."""
    m = rho.matrix
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def partial_trace_b_loops(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Second-factor partial trace by its element formula."""
    out = np.zeros((dim_a, dim_a), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_a):
            out[i, j] = sum(m[i * dim_b + k, j * dim_b + k] for k in range(dim_b))
    return out


def partial_trace_a_loops(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """First-factor partial trace by its element formula."""
    out = np.zeros((dim_b, dim_b), dtype=complex)
    for i in range(dim_b):
        for j in range(dim_b):
            out[i, j] = sum(m[k * dim_b + i, k * dim_b + j] for k in range(dim_a))
    return out


def jacobi_eigvalsh(a: np.ndarray, max_sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix; ascending eigenvalues."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    for _ in range(max_sweeps):
        largest = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                mag = abs(a[p, q])
                largest = max(largest, mag)
                if mag <= tol:
                    continue
                phase = a[p, q] / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                rot[q, q] = c
                a = rot.conj().T @ a @ rot
        if largest <= tol:
            break
    return np.sort(a.diagonal().real)


def jacobi_singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values as square roots of Jacobi eigenvalues of m^dagger m."""
    m = np.asarray(m, dtype=complex)
    w = jacobi_eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def two_copy_step(nx: float, nz: float) -> tuple:
    """One optimal concentration layer by direct 4x4 simulation of two copies.

    Input is a Bloch vector in the ny = 0 plane with nx >= 0; returns the
    output (nx, nz).
    """
    p00 = (1.0 + nz) / 2.0
    p01 = nx / 2.0
    rho = np.array([[p00, p01], [p01, 1.0 - p00]], dtype=complex)
    v = 2.0 * p00 - 1.0
    scale = np.sqrt(1.0 + v * v)
    c, s = 1.0 / scale, v / scale
    u = np.array(
        [[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], dtype=complex
    )
    big = u @ np.kron(rho, rho) @ u.conj().T
    red = big.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return float(2.0 * red[0, 1].real), float(2.0 * red[0, 0].real - 1.0)


def _sequential_restart(objective, x0: np.ndarray, max_iters: int) -> tuple:
    """One restart of the greedy coordinate search: -step counts only after +step failed.

    Both candidates of a coordinate come from one ``move`` call, as in the
    package: a lone candidate would send one-element products through
    another numpy loop, which rounds differently.
    """
    from coherence_lab.optimizer import INITIAL_STEP, STEP_DECAY, STEP_FLOOR

    only = np.zeros(1, dtype=int)
    x = x0.copy()
    fx = objective.start(x[None])[0]
    curve = [fx]
    accepted = shrinks = 0
    step = INITIAL_STEP
    while len(curve) < max_iters and step >= STEP_FLOOR:
        improved = False
        for i in range(x.size):
            if len(curve) >= max_iters:
                break
            trial = np.array([[x[i] + step], [x[i] - step]])
            values = objective.move(x[None], only, i, trial)[:, 0]
            for k in (0, 1):
                if values[k] > fx:
                    objective.accept(only, np.array([k]))
                    x = x.copy()
                    x[i], fx = trial[k, 0], values[k]
                    accepted += 1
                    improved = True
                    curve.append(fx)
                    break
                curve.append(fx)
                if len(curve) >= max_iters:
                    break
        if not improved:
            step *= STEP_DECAY
            shrinks += 1
    reason = "eval budget" if len(curve) >= max_iters else "step floor"
    return x, fx, curve, accepted, shrinks, reason


def sequential_search(rho, op, index: int, config) -> tuple:
    """``maximize_delta_m`` run one restart after another on a stack of one point.

    Returns the ``SearchOutcome`` and each restart's evaluation count. The best
    unitary is rebuilt from the best point's parameters, not taken from the
    objective's cache.
    """
    from coherence_lab.optimizer import (
        CONVERGENCE_TOLERANCE,
        SearchOutcome,
        _exp_ih,
        _hermitian_from_params,
        _StripeObjective,
    )
    from coherence_lab.states import AllowedUnitary, BipartiteGenerator

    gen = BipartiteGenerator(op)
    objective = _StripeObjective(rho, gen, index)
    n_params = int(objective.offsets[-1])
    rng = np.random.default_rng(config.seed)
    best = None
    history, reasons, evals = [], [], []
    accepted = shrinks = 0
    for restart in range(config.restarts):
        x0 = np.zeros(n_params) if restart == 0 else rng.uniform(-math.pi, math.pi, n_params)
        x, fx, curve, n_accepted, n_shrinks, reason = _sequential_restart(objective, x0, config.max_iters)
        history.append(float(fx))
        reasons.append(reason)
        evals.append(len(curve))
        accepted += n_accepted
        shrinks += n_shrinks
        if best is None or fx > best[1]:
            best = x, fx, curve
    best_x, best_f, best_curve = best
    blocks = tuple(
        _exp_ih(_hermitian_from_params(n, best_x[first : first + n * n]))
        for n, first in zip(objective.sizes, objective.offsets)
    )
    stable_from = int(0.8 * (len(best_curve) - 1))
    outcome = SearchOutcome(
        best_delta_m=float(best_f),
        best_unitary=AllowedUnitary(gen, blocks),
        history=tuple(history),
        converged=bool(best_curve[-1] - best_curve[stable_from] <= CONVERGENCE_TOLERANCE),
        evals=sum(evals),
        accepted=accepted,
        step_shrinks=shrinks,
        stop_reasons=tuple(reasons),
    )
    return outcome, evals
