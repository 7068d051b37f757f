"""Direct solution of the equality-constrained dual systems.

The shared-factor step, the mode-row steps, and the single-task baseline
all reduce to the same symmetric indefinite saddle-point system

    [[0, A^T], [A, Q + I/C + jitter*I]] [b; coef] = [0; y]

with A the block-of-ones constraint matrix pairing samples to tasks.
`solve_dual_system` is the entry point. Q is either a dense m x m matrix
or a `FeatureGram`, Q = Phi Phi^T held as its m x p feature matrix Phi,
and the system is solved in one of two forms, both by Cholesky:

* Dense with a Schur complement, for a dense Q (kernels without a finite
  feature map, the single-task baseline) and for a FeatureGram with more
  columns than rows. H = Q + (1/C + jitter) I is positive definite for a
  PSD Q, and its Cholesky factor gives H^-1 y and H^-1 A in one triangular
  solve. The biases come from the T x T Schur complement A^T H^-1 A, also
  Cholesky-factored, and the duals from alpha = H^-1 (y - A b) (the
  classic LS-SVM solve, Suykens & Vandewalle 1999). A failed factorization
  flags a Q that is not PSD. One refinement step, reusing both factors,
  follows when the residual misses the acceptance bound.
* Centered ridge (`solve_feature_system`), for a FeatureGram with p <= m.
  Centering Phi and y per block eliminates the biases, which leaves a
  p x p ridge system in the primal weights w, solved by Cholesky. Biases
  and duals are recovered from w. One refinement step always follows.

Both evaluate the residual of the saddle system above with the original
Q (never with a factor), and raise SolverError when it exceeds
RESIDUAL_RTOL * (1 + ||y||).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import SolverError

__all__ = ["RESIDUAL_RTOL", "FeatureGram", "solve_dual_system", "solve_feature_system"]

RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class FeatureGram:
    """The system matrix Q = Phi Phi^T, held as its m x p feature matrix Phi."""

    features: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be an m x p matrix, got shape {features.shape}")
        object.__setattr__(self, "features", features)


class _Blocks:
    """Validated block structure of a saddle system: samples stacked block by block."""

    def __init__(self, block_sizes, m: int, C: float, jitter: float) -> None:
        sizes = np.array(block_sizes, dtype=np.intp)
        if sizes.sum() != m:
            raise ValueError(f"inconsistent system shapes: blocks {sizes.sum()}, y {m}")
        if not C > 0:
            raise ValueError(f"C must be positive, got {C}")
        if jitter < 0:
            raise ValueError(f"jitter must be nonnegative, got {jitter}")
        if (sizes < 1).any():
            raise ValueError(f"every block needs at least one sample, got sizes {sizes.tolist()}")
        self.sizes = sizes
        self.starts = sizes.cumsum() - sizes
        self.of = np.arange(sizes.shape[0]).repeat(sizes)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-block sums along the sample axis (A^T values)."""
        return np.add.reduceat(values, self.starts, axis=0)


def _cholesky(H: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of H, in H's memory when H is Fortran-ordered."""
    factor, info = dpotrf(H, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SolverError(
            f"{what} is not positive definite (dpotrf info {info}); increase jitter or adjust C"
        )
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factor from `_cholesky`; rhs is scratch and may be overwritten."""
    solution, info = dpotrs(factor, rhs, lower=1, overwrite_b=1)
    if info != 0:
        raise SolverError(f"triangular solve failed (dpotrs info {info})")
    return solution


def _refined(blocks: _Blocks, y, inv_c: float, apply_q, solve, biases, duals, always: bool):
    """Residual of the saddle system at (biases, duals), one refinement step, and the check.

    `apply_q(v)` is Q v for the original Q and `solve(g, h)` solves the
    saddle system for the right-hand side [g; h] with the form's factors.
    The step is taken always, or only when the residual misses the bound.
    """
    bound = RESIDUAL_RTOL * (1.0 + math.sqrt(y @ y))

    def saddle_residual(b: np.ndarray, alpha: np.ndarray):
        top = blocks.sums(alpha)
        bottom = b[blocks.of] + apply_q(alpha) + inv_c * alpha - y
        return top, bottom, math.sqrt(top @ top + bottom @ bottom)

    top, bottom, residual = saddle_residual(biases, duals)
    if always or residual > bound:
        db, dduals = solve(-top, -bottom)
        biases, duals = biases + db, duals + dduals
        _, _, residual = saddle_residual(biases, duals)
    finite = np.isfinite(biases).all() and np.isfinite(duals).all()
    if not finite or not residual <= bound:
        raise SolverError(
            f"dual system solve residual {residual:.3e} exceeds {bound:.3e}; "
            "increase jitter or adjust C"
        )
    return biases, duals, residual


def solve_dual_system(
    block_sizes, Q: np.ndarray | FeatureGram, y: np.ndarray, C: float, jitter: float = 0.0
):
    """Solve the saddle-point system above.

    A FeatureGram whose Phi has no more columns than rows goes to
    :func:`solve_feature_system`, whose p x p factor is then the smaller
    one; any other Q is solved in the dense form with a Schur complement.
    Returns (biases, coefficients, residual_norm) where biases has one
    entry per block and coefficients one per sample. Raises SolverError if
    Q + I/C is not positive definite or the residual exceeds
    RESIDUAL_RTOL * (1 + ||y||) even after refinement, and ValueError on
    inconsistent shapes, an empty block, C <= 0 or jitter < 0.
    """
    if isinstance(Q, FeatureGram):
        Phi = Q.features
        if Phi.shape[1] <= Phi.shape[0]:
            return solve_feature_system(block_sizes, Phi, y, C, jitter)
        Q = Phi @ Phi.T
        Q = 0.5 * (Q + Q.T)
    y = np.asarray(y, dtype=float)
    Q = np.asarray(Q, dtype=float)
    m = y.shape[0]
    if Q.shape != (m, m):
        raise ValueError(f"inconsistent system shapes: Q {Q.shape}, y {m}")
    blocks = _Blocks(block_sizes, m, C, jitter)
    inv_c = 1.0 / C + jitter

    H = np.array(Q, order="C")  # a copy: the residual needs Q itself
    H.reshape(-1)[:: m + 1] += inv_c
    # H.T is Fortran-ordered, so LAPACK factors it in place; its lower
    # triangle is H's upper one, the same for a symmetric Q.
    factor = _cholesky(H.T, "Q + I/C")
    rhs = np.zeros((m, 1 + blocks.sizes.shape[0]), order="F")
    rhs[:, 0] = y
    rhs[np.arange(m), 1 + blocks.of] = 1.0  # columns 1.. hold A
    first = _cho_solve(factor, rhs)
    Hinv_A = first[:, 1:]
    schur = _cholesky(blocks.sums(Hinv_A), "Schur complement A^T H^-1 A")

    def from_hinv(g: np.ndarray, Hinv_h: np.ndarray):
        b = _cho_solve(schur, blocks.sums(Hinv_h) - g)
        return b, Hinv_h - Hinv_A @ b

    biases, duals = from_hinv(np.zeros(blocks.sizes.shape[0]), first[:, 0])
    return _refined(
        blocks, y, inv_c, lambda v: Q @ v,
        lambda g, h: from_hinv(g, _cho_solve(factor, h)),
        biases, duals, always=False,
    )


def solve_feature_system(block_sizes, Phi: np.ndarray, y: np.ndarray, C: float, jitter: float = 0.0):
    """Solve the saddle-point system with Q = Phi Phi^T as a centered ridge.

    Same contract as :func:`solve_dual_system`, which calls this for a
    FeatureGram with p <= m. With 1/C_eff = 1/C + jitter,
    the p x p matrix Phi~^T Phi~ + I/C_eff of the block-centered features
    Phi~ is Cholesky-factored once. A right-hand side [g; h] of the saddle
    system then solves in closed form:

        w   = (Phi~^T Phi~ + I/C_eff)^-1 (Phi~^T h~ + Phi_bar^T g / C_eff)
        b_t = mean_t(h - Phi w) - g_t / (C_eff n_t)
        a   = C_eff (h - A b - Phi w)

    where Phi_bar holds the block means of Phi. The solve for [0; y] is
    always followed by one refinement step on the saddle residual, reusing
    the factor. Exact for every p, but cheaper than the dense form only
    while p stays below the sample count.
    """
    y = np.asarray(y, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    m = y.shape[0]
    if Phi.ndim != 2 or Phi.shape[0] != m:
        raise ValueError(f"inconsistent system shapes: Phi {Phi.shape}, y {m}")
    blocks = _Blocks(block_sizes, m, C, jitter)
    sizes = blocks.sizes
    inv_c = 1.0 / C + jitter

    def block_means(values: np.ndarray) -> np.ndarray:
        return blocks.sums(values) / sizes.reshape((-1,) + (1,) * (values.ndim - 1))

    Phi_bar = block_means(Phi)
    Phi_c = Phi - Phi_bar[blocks.of]
    H = Phi_c.T @ Phi_c
    H[np.diag_indices_from(H)] += inv_c
    # Non-finite entries fail the factorization or the final finiteness check.
    factor = _cholesky(H, "feature system")

    def solve(g: np.ndarray, h: np.ndarray):
        h_c = h - block_means(h)[blocks.of]
        w = _cho_solve(factor, Phi_c.T @ h_c + inv_c * (Phi_bar.T @ g))
        fitted = Phi @ w
        b = block_means(h - fitted) - inv_c * g / sizes
        return b, (h - b[blocks.of] - fitted) / inv_c

    biases, duals = solve(np.zeros(sizes.shape[0]), y)
    return _refined(
        blocks, y, inv_c, lambda v: Phi @ (Phi.T @ v), solve, biases, duals, always=True
    )
