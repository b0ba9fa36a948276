"""L1-regularized least-squares reconstruction with FISTA, and the FISTA
iteration that the unrolled networks share.

The unknown reflectivity is real while the data and operator are complex.
For a real map x, ``||s - A x||^2`` only sees the echo through the real
coordinates that the maps ``A x`` can reach, and two cutoffs find them. The
scene is compressive, so ``A A^H = U diag(w) U^H`` has only k eigenvalues
above rounding noise, and ``C_2k = [Re U_k^H A; Im U_k^H A]`` (176-178 x 784
at the paper geometry) holds A's action on real maps. Of its 2k rows, real
maps reach only the r directions whose ``C_2k C_2k^T`` eigenvalue is above
rounding noise too (r = 158-160 at the paper geometry). With those
eigenvectors V_r, the real factor is ``C = V_r^T C_2k`` (r x 784, orthogonal
rows), and an echo enters every physics computation through its r real
range coordinates ``z = V_r^T [Re U_k^H s; Im U_k^H s]``
(:meth:`ImagingOperator.coords`). The one data residual is ``C x - z``. The
smooth-term gradient restricted to real vectors is ``C^T (C x - z) = G x - b``
with ``G = Re(A^H A) = C^T C`` and ``b = C^T z``, which is ``Re(A^H s)`` up
to the dropped eigenvectors. Neither ``G`` nor ``b`` is formed: the
gradient is two thin products.

:func:`fista_iterates` is the FISTA iteration of the unrolled networks:
momentum, a gradient step and a proximal step, with a step and a threshold
per iteration, on two thin products. Two proxes go with it:
:func:`soft_threshold`, the prox of the L1 norm, and :func:`nonneg_shrink`,
the prox of the L1 norm restricted to x >= 0. ``models.LFistaResNet`` runs
its first ``n_blocks`` iterations as its unrolled blocks, with the
nonnegative shrink and a step and a threshold per block, learned or pinned
to the solver's.

:func:`fista_solve`, the classic solver, runs the same update with the soft
threshold, the fixed step ``1 / lmax`` and the threshold ``lam / lmax``, but
on its own iteration, :func:`_solver_iterates`, which needs one full-size
product per iteration instead of two. It carries each iterate's range
coordinates ``x C^T`` and updates the threshold's part of them only where
the clipped offsets ``clip(v, -theta, theta)`` changed. At the solver's
small fixed threshold that is a few dozen of the 78,400 offsets of 100
echoes per iteration. The networks would gain nothing from it: their
nonnegative shrink moves the offset of every background cell in every
block, and a learned threshold moves every offset.

:func:`fista_solve` takes one echo or a batch; a batch runs as one set of
rows, and its objective trace, when recorded, is computed for the whole
batch at each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RANGES
from .errors import DivergedError

# Iterations between two resets of the classic solver's carried range
# coordinates (see _solver_iterates). At 50 the resets cost two of the 50
# products that carrying saves, and at 100 echoes keep the estimates as
# close to the two-product iteration's as one BLAS thread count is to another.
RESYNC_ITERS = 50


def soft_threshold(x: np.ndarray, theta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise S_theta(x) = sign(x) * max(|x| - theta, 0), computed as
    x - clip(x, -theta, theta) and written into ``out`` if given (which must
    not be ``x`` itself). Entries at or inside the threshold come out +0.0."""
    if theta < 0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    clipped = np.clip(x, -theta, theta, out=out)
    return np.subtract(x, clipped, out=clipped)


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

    ``lmax``, ``basis`` and ``factor`` come from two eigendecompositions:
    ``A A^H = U diag(w) U^H`` of the m x m complex matrix (m = 200 at the
    paper geometry), which has the nonzero spectrum of the P x P ``A^H A``,
    and ``C_2k C_2k^T = V diag(w') V^T`` of the 2k x 2k real matrix, with
    ``C_2k = [Re U_k^H A; Im U_k^H A]``. Each keeps the eigenvectors whose
    eigenvalue exceeds float64 machine epsilon times its largest one; the
    ones below are rounding noise. At the paper geometry the second
    decomposition and its products add about a third to the build: 19-25
    ms instead of 15-18 ms on one Xeon core with OpenBLAS.

    Attributes
    ----------
    matrix : np.ndarray, shape (m, P)
        The complex forward operator.
    n_cells : int
        P, the number of grid cells.
    basis : np.ndarray, shape (m, r)
        ``U_k (V_top + i V_bot)``, where U_k holds the k kept eigenvectors of
        A A^H and ``V_top``, ``V_bot`` are the first and last k rows of the
        r kept eigenvectors V_r of C_2k C_2k^T, so that the range
        coordinates ``V_r^T [Re U_k^H s; Im U_k^H s]`` are
        ``Re(s^T conj(basis))``. At the paper geometry k = 88-89 of m = 200
        and r = 159-160. The eigenvalues next to either cutoff are
        themselves rounding noise, so k and r move by one or two with the
        BLAS thread count and f0 (k = 87-89 and r = 158-160 over 28-32 GHz).
    factor : np.ndarray, shape (r, P)
        C = V_r^T C_2k, C-contiguous, with orthogonal rows, so that
        Re(A^H A) = C^T C within 2.7e-15 of its largest entry at the paper
        geometry, where C is 160 x 784. r never exceeds P or 2k.
    spectrum : np.ndarray, shape (r,)
        The eigenvalues of C C^T, ascending, in the order of the factor's
        rows: the squared row norms lambda_j, so that C C^T = diag(lambda).
        Its largest entry, lmax(C C^T), is 7,769 at the paper geometry.
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
        eps = np.finfo(np.float64).eps
        w, u = np.linalg.eigh(self.matrix @ self.matrix.conj().T)
        self.lmax = float(w[-1])
        u = u[:, w > eps * self.lmax]
        f = u.conj().T @ self.matrix
        c = np.concatenate([f.real, f.imag])
        w, v = np.linalg.eigh(c @ c.T)
        kept = w > eps * w[-1]
        v = v[:, kept]
        self.spectrum = w[kept]
        self.factor = v.T @ c
        k = len(f)
        self.basis = u @ (v[:k] + 1j * v[k:])
        self.n_cells = self.matrix.shape[1]

    def coords(self, echoes: np.ndarray) -> np.ndarray:
        """Range coordinates z = Re(s^T conj(basis)) of one echo (m,) or a
        batch (n, m): (r,) or (n, r). ``z @ factor`` is Re(A^H s) up to the
        eigenvectors that either cutoff drops, within
        2 sqrt(eps * lmax) * ||s||."""
        return (np.asarray(echoes) @ self.basis.conj()).real

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
        for name, key in (("lam", "fista_lambda"), ("max_iter", "fista_max_iter")):
            rule, allowed = RANGES[key]
            value = getattr(self, name)
            if not allowed(value):
                raise ValueError(f"{name} must be {rule}, got {value}")


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
    the estimate: about 0 for a noise-free echo, and for a noisy one half
    the noise energy that no real map produces, both outside the operator's
    range and on the part of it that only complex maps reach.

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

        y = x + w_i (x - x_prev),  r = steps[i] (y C^T - z) C,
        x_next = prox(y - r, thresholds[i])

    on (n, P) rows and yields ``(x, r)``: the new iterate and the step taken
    from y, ``steps[i]`` times the gradient G y - b at y. The yielded arrays
    are buffers that the next iteration overwrites; copy what must outlive
    it. An iteration allocates nothing of size (n, P) and makes seven passes
    over such rows, one of them the second thin product writing r.
    """
    z = op.coords(echoes)
    weights = momentum_coeffs(len(steps))
    x_prev = np.zeros((len(z), op.n_cells))
    x = np.zeros_like(x_prev)
    spare = np.empty_like(x_prev)
    r = np.empty_like(x_prev)
    mid = np.empty_like(z)
    for w, step, theta in zip(weights, steps, thresholds):
        # x_prev is no longer needed: it becomes y
        y = x_prev
        np.subtract(x, y, out=y)
        y *= w
        y += x
        np.matmul(y, op.factor.T, out=mid)
        mid -= z
        mid *= step
        np.matmul(mid, op.factor, out=r)
        y -= r
        x_prev, x, spare = x, prox(y, theta, out=spare), y
        yield x, r


def _solver_iterates(op: ImagingOperator, echoes: np.ndarray, n_iters: int, step: float, theta: float):
    """The classic solver's FISTA iteration: :func:`fista_iterates` with
    :func:`soft_threshold` at one step and one threshold, on one full-size
    product per iteration instead of two.

    It never forms ``y C^T``: it carries each iterate's range coordinates
    ``xc = x C^T`` (n x r) next to it. With lambda = ``op.spectrum``, so that
    ``C C^T = diag(lambda)``, ``v = y - mid C``, ``d = clip(v, -theta,
    theta)`` and the next iterate ``x+ = v - d``, iteration i computes

        mid = step (xc + w_i (xc - xc_prev) - z),
        x+ C^T = z + mid (1 / step - lambda) - d C^T.

    ``d C^T`` is carried too, and updated through the k columns where ``d``
    changed: one (n x k) @ (k x r) product. At a small threshold almost
    every entry of ``d`` stays at +-theta from one iteration to the next, so
    after the first iterations k is a few dozen of P. When more than
    ``n r / (n + r)`` columns change, so that the gathered columns would
    outgrow one (n, r) array, ``d C^T`` is one dense (n, P) @ (P, r)
    product instead.

    Carried coordinates drift from ``x C^T`` by rounding, and the momentum
    makes the drift grow with the square of the iterations it runs
    unchecked: without resets, 2,000 iterations on 100 digit echoes moved
    the estimates by up to 2.3e-8 of their scale. Every ``RESYNC_ITERS``
    iterations both ``xc`` and ``xc_prev`` are recomputed from the iterates,
    two more dense products, which keeps the estimates within 2e-9 of
    :func:`fista_iterates`'. Resetting ``xc`` alone would leave a jump in
    the momentum term.

    Yields ``(x, x_prev)`` from buffers that the next iteration overwrites.
    An iteration allocates nothing of size (n, P) and makes eight passes
    over such rows, one of them the product writing ``mid C``.
    """
    factor = op.factor
    # a copy: the real view of the complex product would keep all of it
    z = np.ascontiguousarray(op.coords(echoes))
    gain = 1.0 / step - op.spectrum
    n, (r, p) = len(z), factor.shape
    x_prev = np.zeros((n, p))
    x = np.zeros_like(x_prev)
    d = np.zeros_like(x_prev)
    spare = np.empty_like(x_prev)
    changed = np.empty((n, p), dtype=bool)
    xc_prev = np.empty_like(z)
    xc = np.empty_like(z)
    dc = np.zeros_like(z)
    mid = np.empty_like(z)
    k_max = n * r // (n + r)
    scatter = np.empty(n * k_max)
    gather = np.empty(r * k_max)
    for i, w in enumerate(momentum_coeffs(n_iters)):
        # the first reset, at i = 0, sets xc and xc_prev
        if i % RESYNC_ITERS == 0:
            np.matmul(x, factor.T, out=xc)
            np.matmul(x_prev, factor.T, out=xc_prev)
        # x_prev is no longer needed: it becomes y, then v, then x+
        y = x_prev
        np.subtract(x, y, out=y)
        y *= w
        y += x
        np.subtract(xc, xc_prev, out=mid)
        mid *= w
        mid += xc
        mid -= z
        mid *= step
        np.matmul(mid, factor, out=spare)
        y -= spare
        d_prev, d = d, np.clip(y, -theta, theta, out=spare)
        np.not_equal(d, d_prev, out=changed)
        cols = np.flatnonzero(changed.any(axis=0))
        k = len(cols)
        if k > k_max:
            np.matmul(d, factor.T, out=dc)
        elif k:
            delta = np.take(d, cols, axis=1, out=scatter[: n * k].reshape(n, k))
            delta -= d_prev[:, cols]
            columns = np.take(factor, cols, axis=1, out=gather[: r * k].reshape(r, k))
            # xc_prev is no longer needed: it takes the update, then x+ C^T
            np.matmul(delta, columns.T, out=xc_prev)
            dc += xc_prev
        np.subtract(y, d, out=y)
        np.multiply(mid, gain, out=xc_prev)
        xc_prev += z
        xc_prev -= dc
        x_prev, x, spare = x, y, d_prev
        xc_prev, xc = xc, xc_prev
        yield x, x_prev


def fista_solve(a, s: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> SolverResult:
    """Reconstruct real reflectivity from one complex echo (m,) or a batch (n, m)
    with the fixed step 1 / lmax and the soft threshold lam / lmax, on ``op``
    or, if None, an operator built from ``a``.

    The estimate is (P,) or (n, P), and the objective trace, when recorded,
    (T,) or (n, T) with T = iterations_run + 1. With ``cfg.rel_tol`` a batch
    stops once every echo's relative change is below it. A (0, m) batch
    gives (0, P) estimates after 0 iterations.

    Raises
    ------
    DivergedError
        If an iterate stops being finite; the message names the iteration.
    """
    s = np.asarray(s)
    echoes = np.atleast_2d(s)
    if op is None:
        op = ImagingOperator(a)
    step = 1.0 / op.lmax
    n = len(echoes)
    trace = [energy(op, echoes, np.zeros((n, op.n_cells)), cfg.lam)] if cfg.record_objective else None
    iterates = _solver_iterates(op, echoes, cfg.max_iter, step, cfg.lam * step) if n else ()
    x, iterations = np.zeros((0, op.n_cells)), 0  # the estimates of no echoes
    # Overflow is reported by the isfinite check below, not as a warning.
    # The check reads every iterate: clip maps +-inf to +-theta, so an
    # iterate can overflow while its range coordinates stay finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for x, x_prev in iterates:
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
    trace = None if trace is None else np.stack(trace, axis=1)
    if s.ndim == 1:
        x, trace = x[0], None if trace is None else trace[0]
    return SolverResult(estimate=x, iterations_run=iterations, objective_trace=trace)


def fista_solve_many(a, echoes: np.ndarray, cfg: FistaConfig, op: ImagingOperator | None = None) -> np.ndarray:
    """:func:`fista_solve`'s (n, P) estimates of (n, m) echoes."""
    return fista_solve(a, np.atleast_2d(echoes), cfg, op).estimate
