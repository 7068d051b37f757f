"""Direct solution of the equality-constrained dual systems.

The shared-factor step, the mode-row steps, and the single-task baseline
all reduce to the same symmetric indefinite saddle-point system

    [[0, A^T], [A, Q + I/C + jitter*I]] [b; coef] = [0; y]

with A the block-of-ones constraint matrix pairing samples to tasks.
`solve_dual_system` is the entry point. Q is either a dense m x m matrix
or a `FeatureGram`, Q = Phi Phi^T held as its m x p feature matrix Phi,
and the system is solved in one of two forms:

* Dense: the (T+m) x (T+m) matrix is assembled and LU-factored; one step
  of iterative refinement is applied if the residual misses the acceptance
  bound. Used for a dense Q (kernels without a finite feature map, the
  single-task baseline) and for a FeatureGram with more columns than rows.
* Centered ridge (`solve_feature_system`), for a FeatureGram with p <= m.
  Centering Phi and y per block eliminates the biases (the classic LS-SVM
  bias elimination, Suykens & Vandewalle 1999), which leaves a p x p ridge
  system in the primal weights w, solved by Cholesky. Biases and duals
  are recovered from w, and the residual is that of the saddle system
  above, evaluated without forming Q.

Both report the residual of the saddle system and raise SolverError when
it exceeds RESIDUAL_RTOL * (1 + ||y||).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lu_factor, lu_solve

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


def block_constraint_matrix(block_sizes) -> np.ndarray:
    """m x T block-diagonal matrix of ones columns (one column per task)."""
    m = int(sum(block_sizes))
    A = np.zeros((m, len(block_sizes)))
    start = 0
    for j, size in enumerate(block_sizes):
        A[start : start + size, j] = 1.0
        start += size
    return A


def _check_system(block_sizes, m: int, C: float, jitter: float) -> None:
    if sum(block_sizes) != m:
        raise ValueError(f"inconsistent system shapes: blocks {sum(block_sizes)}, y {m}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")


def _check_residual(residual: float, y: np.ndarray, *solution) -> None:
    bound = RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(y)))
    if not all(np.all(np.isfinite(part)) for part in solution) or not residual <= bound:
        raise SolverError(
            f"dual system solve residual {residual:.3e} exceeds {bound:.3e}; "
            "increase jitter or adjust C"
        )


def solve_dual_system(
    block_sizes, Q: np.ndarray | FeatureGram, y: np.ndarray, C: float, jitter: float = 0.0
):
    """Solve the saddle-point system above.

    A FeatureGram whose Phi has no more columns than rows goes to
    :func:`solve_feature_system`, whose p x p factor is then the smaller
    one; any other Q is solved by the dense LU. Returns (biases,
    coefficients, residual_norm) where biases has one entry per block and
    coefficients one per sample. Raises SolverError if the system is
    singular or the residual exceeds RESIDUAL_RTOL * (1 + ||y||) even after
    refinement.
    """
    if isinstance(Q, FeatureGram):
        Phi = Q.features
        if Phi.shape[1] <= Phi.shape[0]:
            return solve_feature_system(block_sizes, Phi, y, C, jitter)
        Q = Phi @ Phi.T
        Q = 0.5 * (Q + Q.T)
    block_sizes = [int(s) for s in block_sizes]
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    n_blocks = len(block_sizes)
    if Q.shape != (m, m):
        raise ValueError(f"inconsistent system shapes: Q {Q.shape}, y {m}")
    _check_system(block_sizes, m, C, jitter)

    A = block_constraint_matrix(block_sizes)
    M = np.zeros((n_blocks + m, n_blocks + m))
    M[:n_blocks, n_blocks:] = A.T
    M[n_blocks:, :n_blocks] = A
    M[n_blocks:, n_blocks:] = Q + (1.0 / C + jitter) * np.eye(m)
    rhs = np.concatenate([np.zeros(n_blocks), y])

    try:
        factors = lu_factor(M)
        sol = lu_solve(factors, rhs)
    except (LinAlgError, ValueError) as exc:
        raise SolverError(
            f"dual system is singular ({exc}); increase jitter or adjust C"
        ) from exc

    bound = RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(y)))
    residual = float(np.linalg.norm(M @ sol - rhs))
    if residual > bound:
        sol = sol + lu_solve(factors, rhs - M @ sol)
        residual = float(np.linalg.norm(M @ sol - rhs))
    _check_residual(residual, y, sol)
    return sol[:n_blocks], sol[n_blocks:], residual


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
    sizes = np.array([int(s) for s in block_sizes])
    y = np.asarray(y, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    m = y.shape[0]
    if Phi.ndim != 2 or Phi.shape[0] != m:
        raise ValueError(f"inconsistent system shapes: Phi {Phi.shape}, y {m}")
    _check_system(sizes, m, C, jitter)
    if np.any(sizes < 1):
        raise ValueError(f"every block needs at least one sample, got sizes {sizes.tolist()}")

    inv_c = 1.0 / C + jitter
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    block_of = np.repeat(np.arange(sizes.shape[0]), sizes)

    def block_means(values: np.ndarray) -> np.ndarray:
        sums = np.add.reduceat(values, starts, axis=0)
        return sums / sizes.reshape((-1,) + (1,) * (values.ndim - 1))

    Phi_bar = block_means(Phi)
    Phi_c = Phi - Phi_bar[block_of]
    H = Phi_c.T @ Phi_c
    H[np.diag_indices_from(H)] += inv_c
    # Non-finite entries fail the factorization or the final finiteness check.
    try:
        factor = cho_factor(H, lower=True, check_finite=False)
    except (LinAlgError, ValueError) as exc:
        raise SolverError(
            f"feature system is not positive definite ({exc}); increase jitter or adjust C"
        ) from exc

    def solve(g: np.ndarray, h: np.ndarray):
        h_c = h - block_means(h)[block_of]
        w = cho_solve(factor, Phi_c.T @ h_c + inv_c * (Phi_bar.T @ g), check_finite=False)
        fitted = Phi @ w
        b = block_means(h - fitted) - inv_c * g / sizes
        return b, (h - b[block_of] - fitted) / inv_c

    def saddle_residual(b: np.ndarray, alpha: np.ndarray):
        top = np.add.reduceat(alpha, starts)
        bottom = b[block_of] + Phi @ (Phi.T @ alpha) + inv_c * alpha - y
        return top, bottom

    biases, duals = solve(np.zeros(sizes.shape[0]), y)
    top, bottom = saddle_residual(biases, duals)
    db, dduals = solve(-top, -bottom)
    biases, duals = biases + db, duals + dduals
    top, bottom = saddle_residual(biases, duals)
    residual = float(np.sqrt(top @ top + bottom @ bottom))
    _check_residual(residual, y, biases, duals)
    return biases, duals, residual
