"""L1-regularized least-squares reconstruction with fixed-step FISTA.

The unknown reflectivity is real while the data and operator are complex,
so the smooth-term gradient restricted to real vectors is
``Re(A^H (A x - s)) = G x - b`` with ``G = Re(A^H A)`` and ``b = Re(A^H s)``.
G and b are precomputed once per operator and reused every iteration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergedError
from .forward import matrix_entries


def soft_threshold(x: np.ndarray, theta: float) -> np.ndarray:
    """Elementwise S_theta(x) = sign(x) * max(|x| - theta, 0)."""
    if theta < 0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    return np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)


def power_iteration_lmax(a, tol: float = 1e-8, max_it: int = 500) -> float:
    """Largest eigenvalue of A^H A by power iteration.

    Starts from the normalized all-ones vector and stops when the Rayleigh
    quotient changes by less than ``tol`` relative. Warns and returns the
    last estimate if ``max_it`` is exhausted first.
    """
    m = matrix_entries(a)
    if not np.any(m):
        raise ValueError("power iteration requires a nonzero matrix")
    v = np.ones(m.shape[1], dtype=np.complex128)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_it):
        w = m.conj().T @ (m @ v)
        lam_new = float(np.real(np.vdot(v, w)))
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new
        lam = lam_new
    warnings.warn(
        f"power iteration did not reach tol={tol} within {max_it} iterations; "
        f"returning last estimate {lam}",
        RuntimeWarning,
    )
    return lam


def momentum_coeffs(n_iters: int) -> np.ndarray:
    """Momentum weights (t_i - 1) / t_{i+1} from t_0 = 1 and the update
    t_{i+1} = (1 + sqrt(1 + 4 t_i^2)) / 2; the first weight is 0."""
    coeffs = np.empty(n_iters)
    t = 1.0
    for i in range(n_iters):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        coeffs[i] = (t - 1.0) / t_next
        t = t_next
    return coeffs


# The operator's iteration cap is higher than power_iteration_lmax's own
# default: the production matrix has a clustered top of the spectrum and needs
# ~1.3k iterations to meet the tolerance.
POWER_TOL = 1e-8
POWER_MAX_IT = 5000


class ImagingOperator:
    """Precomputed real-unknown normal-equation pieces for one sensing matrix.

    Attributes
    ----------
    matrix : np.ndarray, shape (m, P)
        The complex forward operator.
    gram : np.ndarray, shape (P, P)
        Re(A^H A), symmetric positive semidefinite.
    lmax : float
        Largest eigenvalue of A^H A; 1 / lmax is the safe gradient step.
    """

    def __init__(self, a):
        self.matrix = matrix_entries(a)
        self.gram = (self.matrix.conj().T @ self.matrix).real
        self.lmax = power_iteration_lmax(self.matrix, POWER_TOL, POWER_MAX_IT)

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[1]

    def rhs(self, s: np.ndarray) -> np.ndarray:
        """b = Re(A^H s); accepts a single echo (m,) or a batch (n, m)."""
        s = np.asarray(s)
        if s.ndim == 1:
            return (self.matrix.conj().T @ s).real
        return (s @ self.matrix.conj()).real


@dataclass
class FistaConfig:
    """Solver settings.

    ``mu`` of None means 1 / lmax from power iteration. ``rel_tol`` of None
    disables early stopping (the solver then runs exactly ``max_iter``
    iterations).
    """

    lam: float = 0.001
    max_iter: int = 2000
    mu: float | None = None
    record_objective: bool = False
    rel_tol: float | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mu is not None and self.mu <= 0:
            raise ValueError(f"mu must be > 0 when given, got {self.mu}")


@dataclass
class SolverResult:
    estimate: np.ndarray
    iterations_run: int
    objective_trace: np.ndarray | None = None


def energy(a, s: np.ndarray, eps: np.ndarray, lam: float) -> float:
    """Objective 0.5 * ||s - A eps||_2^2 + lam * ||eps||_1 for one echo."""
    m = matrix_entries(a)
    residual = np.asarray(s) - m @ np.asarray(eps, dtype=np.float64)
    return 0.5 * float(np.real(np.vdot(residual, residual))) + lam * float(
        np.sum(np.abs(eps))
    )


def _fista_loop(op: ImagingOperator, echoes: np.ndarray, b: np.ndarray, cfg: FistaConfig):
    """FISTA on the (P, n) columns b = Re(A^H s) of the (n, m) echoes.

    Starts from x_0 = x_1 = 0 with a fixed step (1 / lmax unless ``cfg.mu``
    overrides) and shrinkage threshold lam * mu; with ``cfg.rel_tol`` it stops
    once every column's relative change is below it. Returns the (P, n)
    iterate, the iterations run, and the objective summed over the batch at
    each iterate if ``cfg.record_objective``, else None.
    """
    mu = cfg.mu if cfg.mu is not None else 1.0 / op.lmax
    thresh = cfg.lam * mu
    weights = momentum_coeffs(cfg.max_iter)

    def objective(x):
        return sum(energy(op.matrix, s, x[:, j], cfg.lam) for j, s in enumerate(echoes))

    x_prev = np.zeros_like(b)
    x = np.zeros_like(b)
    trace = [objective(x)] if cfg.record_objective else None
    iterations = 0
    for i in range(cfg.max_iter):
        y = x + weights[i] * (x - x_prev)
        x_prev = x
        x = soft_threshold(y - mu * (op.gram @ y - b), thresh)
        iterations = i + 1
        if not np.all(np.isfinite(x)):
            raise DivergedError(f"non-finite iterate at iteration {iterations}")
        if trace is not None:
            trace.append(objective(x))
        if cfg.rel_tol is not None:
            change = np.linalg.norm(x - x_prev, axis=0)
            denom = np.maximum(np.linalg.norm(x_prev, axis=0), 1e-300)
            if np.all(change / denom < cfg.rel_tol):
                break
    return x, iterations, trace


def fista_solve(a, s: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> SolverResult:
    """Reconstruct a real reflectivity vector from one complex echo (m,):
    the loop of :func:`fista_solve_many` on a batch of one.

    Raises
    ------
    DivergedError
        If an iterate stops being finite; the message names the iteration.
    """
    s = np.asarray(s)
    if op is None:
        op = ImagingOperator(a)
    x, iterations, trace = _fista_loop(op, s[None], op.rhs(s)[:, None], cfg)
    return SolverResult(
        estimate=x[:, 0],
        iterations_run=iterations,
        objective_trace=np.asarray(trace) if trace is not None else None,
    )


def fista_solve_many(a, echoes: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> np.ndarray:
    """Batched solve: (n, m) echoes -> (n, P) estimates. Raises DivergedError
    like :func:`fista_solve`."""
    echoes = np.asarray(echoes)
    if op is None:
        op = ImagingOperator(a)
    x, _, _ = _fista_loop(op, echoes, op.rhs(echoes).T, cfg)
    return x.T
