"""L1-regularized least-squares reconstruction with FISTA, and the FISTA
iteration that the unrolled networks share.

The unknown reflectivity is real while the data and operator are complex.
The scene is compressive, so ``A A^H = U diag(w) U^H`` has only k eigenvalues
above rounding noise, and an echo enters every physics computation through
its 2k real range coordinates ``z = [Re U_k^H s, Im U_k^H s]``
(:meth:`ImagingOperator.coords`). With the real factor
``C = [Re U_k^H A; Im U_k^H A]`` (178 x 784 at the paper geometry), the one
data residual is ``C x - z``. The smooth-term gradient restricted to real
vectors is ``C^T (C x - z) = G x - b`` with ``G = Re(A^H A) = C^T C`` and
``b = C^T z``, which is ``Re(A^H s)`` up to the dropped eigenvectors. Neither
``G`` nor ``b`` is formed: the gradient is two thin products.

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

    ``lmax``, ``basis`` and ``factor`` all come from one eigendecomposition
    ``A A^H = U diag(w) U^H`` of the m x m matrix, which costs O(m^3)
    (m = 200 at the paper geometry) and has the nonzero spectrum of the
    P x P ``A^H A``.

    Attributes
    ----------
    matrix : np.ndarray, shape (m, P)
        The complex forward operator.
    n_cells : int
        P, the number of grid cells.
    basis : np.ndarray, shape (m, k)
        U_k, the k eigenvectors whose eigenvalue exceeds ``eps * lmax``
        (float64 machine epsilon); the ones below are rounding noise of a
        rank-deficient A A^H. At the paper geometry k = 89 of m = 200. The
        eigenvalues next to the cutoff are themselves rounding noise, so k
        moves by one or two with the BLAS thread count and f0 (87-89 over
        28-32 GHz).
    factor : np.ndarray, shape (2k, P)
        C = [Re F; Im F] with F = U_k^H A, C-contiguous, so that
        Re(A^H A) = C^T C within 2e-15 of its largest entry at the paper
        geometry, where C is 178 x 784. For a matrix that is not
        compressive, 2k may exceed P.
    lmax : float
        Largest eigenvalue of the complex A^H A. It bounds the Lipschitz
        constant of the real-unknown gradient, lmax(C C^T), from above, so
        the step 1 / lmax is safe but conservative: at the paper geometry
        lmax is 15,534 while lmax(C C^T) is 7,769.
    """

    def __init__(self, a):
        self.matrix = np.asarray(a)
        if not np.any(self.matrix):
            raise ValueError("the imaging operator requires a nonzero matrix")
        w, u = np.linalg.eigh(self.matrix @ self.matrix.conj().T)
        self.lmax = float(w[-1])
        self.basis = u[:, w > np.finfo(np.float64).eps * self.lmax]
        f = self.basis.conj().T @ self.matrix
        self.factor = np.concatenate([f.real, f.imag])
        self.n_cells = self.matrix.shape[1]

    def coords(self, echoes: np.ndarray) -> np.ndarray:
        """Range coordinates z = [Re U_k^H s, Im U_k^H s] of one echo (m,)
        or a batch (n, m): (2k,) or (n, 2k). ``z @ factor`` is Re(A^H s) up
        to the dropped eigenvectors, within sqrt(eps * lmax) * ||s||."""
        z = np.asarray(echoes) @ self.basis.conj()
        return np.concatenate([z.real, z.imag], axis=-1)

    def normal(self, y: np.ndarray) -> np.ndarray:
        """y Re(A^H A) = (y C^T) C for rows y, (P,) or (n, P)."""
        return (y @ self.factor.T) @ self.factor


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


def energy(op: ImagingOperator, s: np.ndarray, eps: np.ndarray, lam: float):
    """Objective over the range coordinates, 0.5 * ||C eps - z||_2^2 +
    lam * ||eps||_1 with z = op.coords(s).

    It is the full objective 0.5 * ||s - A eps||_2^2 + lam * ||eps||_1 less
    0.5 * (||s||^2 - ||z||^2), a constant per echo that does not depend on
    the estimate: about 0 for a noise-free echo, and half the noise energy
    outside the operator's range for a noisy one.

    One echo (m,) with its estimate (P,) gives a float; a batch (n, m) with
    (n, P) estimates gives the (n,) values of its rows.
    """
    eps = np.asarray(eps, dtype=np.float64)
    residual = eps @ op.factor.T - op.coords(s)
    value = 0.5 * np.sum(residual**2, axis=-1) + lam * np.sum(np.abs(eps), axis=-1)
    return float(value) if value.ndim == 0 else value


def fista_iterates(op: ImagingOperator, echoes: np.ndarray, steps, thresholds, prox):
    """Run FISTA on the (n, m) echoes, one iteration per entry of ``steps``.

    Starting from x_0 = x_1 = 0, with C = op.factor, z = op.coords(echoes)
    and the momentum weights w_i of :func:`momentum_coeffs`, iteration i
    computes

        y = x + w_i (x - x_prev),  r = (y C^T - z) C,
        x_next = prox(y - steps[i] * r, thresholds[i])

    on (n, P) rows and yields ``(x, x_prev, r)``: the new iterate, the one
    before it and the gradient G y - b at y. The yielded arrays are buffers
    that the next iteration overwrites; copy what must outlive it.
    """
    z = op.coords(echoes)
    weights = momentum_coeffs(len(steps))
    x_prev = np.zeros((len(z), op.n_cells))
    x = np.zeros_like(x_prev)
    y = np.empty_like(x_prev)
    r = np.empty_like(x_prev)
    mid = np.empty_like(z)
    for w, step, theta in zip(weights, steps, thresholds):
        np.subtract(x, x_prev, out=y)
        y *= w
        y += x
        np.matmul(y, op.factor.T, out=mid)
        mid -= z
        np.matmul(mid, op.factor, out=r)
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
    trace = [energy(op, echoes, x, cfg.lam)] if cfg.record_objective else None
    iterations = 0
    # Overflow is reported by the isfinite check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for x, x_prev, _ in iterates:
            iterations += 1
            if not np.isfinite(x).all():
                raise DivergedError(f"non-finite iterate at iteration {iterations}")
            if trace is not None:
                trace.append(energy(op, echoes, x, cfg.lam))
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
