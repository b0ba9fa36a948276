"""L1-regularized least-squares reconstruction with fixed-step FISTA.

The unknown reflectivity is real while the data and operator are complex,
so the smooth-term gradient restricted to real vectors is
``Re(A^H (A x - s)) = G x - b`` with ``G = Re(A^H A)`` and ``b = Re(A^H s)``.
Both come from the stacked real operator ``B = [Re A; Im A]``, built once per
operator: ``G = B^T B`` and ``b = [Re s, Im s] B``. The fixed step is
``1 / lmax`` with ``lmax`` the exact largest eigenvalue of ``A^H A``.

:func:`fista_solve` takes one echo or a batch; a batch runs as one set of
columns, and its objective trace, when recorded, is computed for the whole
batch at each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedError


def soft_threshold(x: np.ndarray, theta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise S_theta(x) = sign(x) * max(|x| - theta, 0), written into
    ``out`` if given (which must not be ``x`` itself)."""
    if theta < 0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    mag = np.subtract(np.abs(x, out=out), theta, out=out)
    np.maximum(mag, 0.0, out=mag)
    return np.copysign(mag, x, out=mag)


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


class ImagingOperator:
    """Precomputed real-unknown normal-equation pieces for one sensing matrix.

    Attributes
    ----------
    matrix : np.ndarray, shape (m, P)
        The complex forward operator.
    stacked : np.ndarray, shape (2m, P)
        The real operator B = [Re A; Im A], so that Re(A^H s) = [Re s, Im s] B.
    gram : np.ndarray, shape (P, P)
        Re(A^H A) = B^T B, C-contiguous and exactly symmetric.
    lmax : float
        Largest eigenvalue of A^H A; 1 / lmax is the safe gradient step.
    """

    def __init__(self, a):
        self.matrix = np.asarray(a)
        if not np.any(self.matrix):
            raise ValueError("the imaging operator requires a nonzero matrix")
        self.stacked = np.concatenate([self.matrix.real, self.matrix.imag])
        self.gram = self.stacked.T @ self.stacked
        # A A^H (m x m) has the nonzero spectrum of A^H A (P x P) and is the
        # smaller matrix when the scene is compressive (m < P).
        self.lmax = float(np.linalg.eigvalsh(self.matrix @ self.matrix.conj().T)[-1])

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[1]

    def rhs(self, s: np.ndarray) -> np.ndarray:
        """b = Re(A^H s); accepts a single echo (m,) or a batch (n, m)."""
        s = np.asarray(s)
        return np.concatenate([s.real, s.imag], axis=-1) @ self.stacked


@dataclass
class FistaConfig:
    """Solver settings.

    ``mu`` of None means 1 / lmax, with lmax the exact largest eigenvalue of
    A^H A. ``rel_tol`` of None disables early stopping (the solver then runs
    exactly ``max_iter`` iterations).
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


def energy(a, s: np.ndarray, eps: np.ndarray, lam: float):
    """Objective 0.5 * ||s - A eps||_2^2 + lam * ||eps||_1.

    One echo (m,) with its estimate (P,) gives a float; a batch (n, m) with
    (n, P) estimates gives the (n,) values of its rows.
    """
    eps = np.asarray(eps, dtype=np.float64)
    residual = np.asarray(s) - eps @ np.asarray(a).T
    value = 0.5 * np.sum(residual.real**2 + residual.imag**2, axis=-1) + lam * np.sum(
        np.abs(eps), axis=-1
    )
    return float(value) if value.ndim == 0 else value


def _fista_loop(op: ImagingOperator, echoes: np.ndarray, cfg: FistaConfig):
    """FISTA on the (n, m) echoes, as the (P, n) columns b = Re(A^H s).

    Starts from x_0 = x_1 = 0 with a fixed step (1 / lmax unless ``cfg.mu``
    overrides) and shrinkage threshold lam * mu; with ``cfg.rel_tol`` it stops
    once every column's relative change is below it. Returns the (n, P)
    estimates, the iterations run, and, if ``cfg.record_objective``, the
    (n, iterations + 1) objective of each echo at each iterate, else None.
    """
    mu = cfg.mu if cfg.mu is not None else 1.0 / op.lmax
    thresh = cfg.lam * mu
    weights = momentum_coeffs(cfg.max_iter)
    b = op.rhs(echoes).T
    x_prev = np.zeros_like(b)
    x = np.zeros_like(b)
    y = np.empty_like(b)
    g = np.empty_like(b)
    trace = [energy(op.matrix, echoes, x.T, cfg.lam)] if cfg.record_objective else None
    iterations = 0
    # Overflow is reported by the isfinite check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.max_iter):
            np.subtract(x, x_prev, out=y)
            y *= weights[i]
            y += x
            np.matmul(op.gram, y, out=g)
            g -= b
            g *= mu
            np.subtract(y, g, out=g)
            # x_prev is no longer needed: the new iterate goes into its buffer
            x_prev, x = x, soft_threshold(g, thresh, out=x_prev)
            iterations = i + 1
            if not np.isfinite(x).all():
                raise DivergedError(f"non-finite iterate at iteration {iterations}")
            if trace is not None:
                trace.append(energy(op.matrix, echoes, x.T, cfg.lam))
            if cfg.rel_tol is not None:
                change = np.linalg.norm(x - x_prev, axis=0)
                denom = np.maximum(np.linalg.norm(x_prev, axis=0), 1e-300)
                if np.all(change / denom < cfg.rel_tol):
                    break
    return x.T, iterations, None if trace is None else np.stack(trace, axis=1)


def fista_solve(a, s: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> SolverResult:
    """Reconstruct real reflectivity from one complex echo (m,) or a batch (n, m).

    The estimate is (P,) or (n, P), and the objective trace, when recorded,
    (T,) or (n, T) with T = iterations_run + 1. A batch stops when every
    echo meets ``cfg.rel_tol``.

    Raises
    ------
    DivergedError
        If an iterate stops being finite; the message names the iteration.
    """
    s = np.asarray(s)
    if op is None:
        op = ImagingOperator(a)
    x, iterations, trace = _fista_loop(op, np.atleast_2d(s), cfg)
    if s.ndim == 1:
        x, trace = x[0], None if trace is None else trace[0]
    return SolverResult(estimate=x, iterations_run=iterations, objective_trace=trace)


def fista_solve_many(a, echoes: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> np.ndarray:
    """Batched solve: (n, m) echoes -> (n, P) estimates. Raises DivergedError
    like :func:`fista_solve`."""
    if op is None:
        op = ImagingOperator(a)
    return _fista_loop(op, np.asarray(echoes), cfg)[0]
