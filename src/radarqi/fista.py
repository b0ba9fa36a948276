"""L1-regularized least-squares reconstruction with FISTA, and the FISTA
iteration that the unrolled networks share.

The unknown reflectivity is real while the data and operator are complex,
so the smooth-term gradient restricted to real vectors is
``Re(A^H (A x - s)) = G x - b`` with ``G = Re(A^H A)`` and ``b = Re(A^H s)``.
``b = [Re s, Im s] B`` comes from the stacked real operator
``B = [Re A; Im A]``. ``G`` is never formed: the scene is compressive, so
``G = C^T C`` for a low-rank real factor ``C`` (178 x 784 at the paper
geometry), and :meth:`ImagingOperator.normal` applies ``G`` to rows as two
thin products, ``(y C^T) C``.

:func:`fista_iterates` is the one FISTA iteration: momentum, a gradient step
and a proximal step, with a step and a threshold per iteration. Two proxes
go with it: :func:`soft_threshold`, the prox of the L1 norm, and
:func:`nonneg_shrink`, the prox of the L1 norm restricted to x >= 0. Two
callers consume it:

- :func:`fista_solve`, the classic solver: soft threshold, the fixed step
  ``1 / lmax`` and threshold ``lam / lmax`` at every iteration;
- ``models.LFistaResNet``, whose unrolled blocks are its first
  ``n_blocks`` iterations with the nonnegative shrink and a step and a
  threshold per block, learned or pinned to the solver's.

:func:`fista_solve` takes one echo or a batch; a batch runs as one set of
rows, and its objective trace, when recorded, is computed for the whole
batch at each iteration.
"""

from __future__ import annotations

import math
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


def nonneg_shrink(x: np.ndarray, theta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(x - theta, 0), the L1 prox on x >= 0, written into
    ``out`` if given."""
    shrunk = np.subtract(x, theta, out=out)
    return np.maximum(shrunk, 0.0, out=shrunk)


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

    Both ``lmax`` and ``factor`` come from one eigendecomposition
    ``A A^H = U diag(w) U^H`` of the m x m matrix, which costs O(m^3)
    (m = 200 at the paper geometry) and has the nonzero spectrum of the
    P x P ``A^H A``.

    Attributes
    ----------
    matrix : np.ndarray, shape (m, P)
        The complex forward operator.
    n_cells : int
        P, the number of grid cells.
    stacked : np.ndarray, shape (2m, P)
        The real operator B = [Re A; Im A], so that Re(A^H s) = [Re s, Im s] B.
    factor : np.ndarray, shape (2k, P)
        C = [Re F; Im F] with F = U_k^H A, C-contiguous, so that
        Re(A^H A) = C^T C. U_k holds the k eigenvectors whose eigenvalue
        exceeds ``eps * lmax`` (float64 machine epsilon); the ones below are
        rounding noise of a rank-deficient A A^H. At the paper geometry
        k = 89 of m = 200, so C is 178 x 784 and C^T C matches the dense
        Re(A^H A) within 2e-15 of its largest entry. The eigenvalues next to
        the cutoff are themselves rounding noise, so k moves by one or two
        with the BLAS thread count and f0 (87-89 over 28-32 GHz). For a
        matrix that is not compressive, 2k may exceed P.
    lmax : float
        Largest eigenvalue of the complex A^H A. It bounds the Lipschitz
        constant of the real-unknown gradient, lmax(Re(A^H A)), from above,
        so the step 1 / lmax is safe but conservative: at the paper
        geometry lmax is 15,534 while lmax(Re(A^H A)) = lmax(B B^T) is 7,769.
    """

    def __init__(self, a):
        self.matrix = np.asarray(a)
        if not np.any(self.matrix):
            raise ValueError("the imaging operator requires a nonzero matrix")
        self.stacked = np.concatenate([self.matrix.real, self.matrix.imag])
        w, u = np.linalg.eigh(self.matrix @ self.matrix.conj().T)
        self.lmax = float(w[-1])
        f = u[:, w > np.finfo(np.float64).eps * self.lmax].conj().T @ self.matrix
        self.factor = np.concatenate([f.real, f.imag])
        self.n_cells = self.matrix.shape[1]

    def rhs(self, s: np.ndarray) -> np.ndarray:
        """b = Re(A^H s); accepts a single echo (m,) or a batch (n, m)."""
        s = np.asarray(s)
        return np.concatenate([s.real, s.imag], axis=-1) @ self.stacked

    def normal(self, y: np.ndarray, out: np.ndarray | None = None, mid: np.ndarray | None = None) -> np.ndarray:
        """y Re(A^H A) = (y C^T) C for rows y, (P,) or (n, P), written into
        ``out`` if given; ``mid``, if given, takes the (n, 2k) product y C^T."""
        return np.matmul(np.matmul(y, self.factor.T, out=mid), self.factor, out=out)


@dataclass
class FistaConfig:
    """Solver settings; ``lam`` and ``max_iter`` come from a config's
    ``fista_lambda`` and ``fista_max_iter``, and the guard rejects what the
    config rejects. ``rel_tol`` of None disables early stopping (the solver
    then runs exactly ``max_iter`` iterations).
    """

    lam: float
    max_iter: int
    record_objective: bool = False
    rel_tol: float | None = None

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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


def fista_iterates(op: ImagingOperator, echoes: np.ndarray, steps, thresholds, prox):
    """Run FISTA on the (n, m) echoes, one iteration per entry of ``steps``.

    Starting from x_0 = x_1 = 0, with b = op.rhs(echoes) and the momentum
    weights w_i of :func:`momentum_coeffs`, iteration i computes

        y = x + w_i (x - x_prev),  r = op.normal(y) - b,
        x_next = prox(y - steps[i] * r, thresholds[i])

    on (n, P) rows and yields ``(x, x_prev, r)``: the new iterate, the one
    before it and the residual at y. The yielded arrays are buffers that the
    next iteration overwrites; copy what must outlive it.
    """
    b = op.rhs(echoes)
    weights = momentum_coeffs(len(steps))
    x_prev = np.zeros_like(b)
    x = np.zeros_like(b)
    y = np.empty_like(b)
    r = np.empty_like(b)
    mid = np.empty((len(b), len(op.factor)))
    for w, step, theta in zip(weights, steps, thresholds):
        np.subtract(x, x_prev, out=y)
        y *= w
        y += x
        op.normal(y, out=r, mid=mid)
        r -= b
        # x_prev is no longer needed: it takes the step, then the new iterate
        np.multiply(r, step, out=x_prev)
        np.subtract(y, x_prev, out=y)
        x_prev, x = x, prox(y, theta, out=x_prev)
        yield x, x_prev, r


def _fista_loop(a, op: ImagingOperator | None, echoes: np.ndarray, cfg: FistaConfig):
    """Solve the (n, m) echoes with the fixed step 1 / lmax and the
    soft threshold lam / lmax, on ``op`` or, if None, an operator built from
    ``a``; with ``cfg.rel_tol`` it stops once every echo's relative change
    is below it. Returns the (n, P) estimates, the iterations run, and, if
    ``cfg.record_objective``, the (n, iterations + 1) objective of each echo
    at each iterate, else None.
    """
    if op is None:
        op = ImagingOperator(a)
    steps = np.full(cfg.max_iter, 1.0 / op.lmax)
    iterates = fista_iterates(op, echoes, steps, cfg.lam * steps, soft_threshold)
    x = np.zeros((len(echoes), op.n_cells))
    trace = [energy(op.matrix, echoes, x, cfg.lam)] if cfg.record_objective else None
    iterations = 0
    # Overflow is reported by the isfinite check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for x, x_prev, _ in iterates:
            iterations += 1
            if not np.isfinite(x).all():
                raise DivergedError(f"non-finite iterate at iteration {iterations}")
            if trace is not None:
                trace.append(energy(op.matrix, echoes, x, cfg.lam))
            if cfg.rel_tol is not None:
                change = np.linalg.norm(x - x_prev, axis=1)
                denom = np.maximum(np.linalg.norm(x_prev, axis=1), 1e-300)
                if np.all(change / denom < cfg.rel_tol):
                    break
    return x, iterations, None if trace is None else np.stack(trace, axis=1)


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
    x, iterations, trace = _fista_loop(a, op, np.atleast_2d(s), cfg)
    if s.ndim == 1:
        x, trace = x[0], None if trace is None else trace[0]
    return SolverResult(estimate=x, iterations_run=iterations, objective_trace=trace)


def fista_solve_many(a, echoes: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> np.ndarray:
    """Batched solve: (n, m) echoes -> (n, P) estimates. Raises DivergedError
    like :func:`fista_solve`."""
    return _fista_loop(a, op, np.asarray(echoes), cfg)[0]
