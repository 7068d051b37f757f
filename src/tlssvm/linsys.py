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

A FeatureGram may also carry `groups`, which makes the system a stack of
independent subsystems (all rows of one mode, say): group g is the next
groups[g] blocks, and its samples' rows of Phi form Phi_g, so that
Q = blockdiag(Phi_g Phi_g^T). Each group takes the form it would take on
its own: the centered ridge when p <= m_g, with one p x p factor per
group, else the dense form on its m_g x m_g block. Every group's residual
is checked against its own bound RESIDUAL_RTOL * (1 + ||y_g||), and the
reported residual is the largest group residual. A SolverError carries
the 0-based index of the lowest failing group in its `group` attribute.

LAPACK's dpotrf and dpotrs come from scipy, which is imported on the first
factorization rather than with this module: only training solves systems,
and importing scipy takes longer than the rest of the package together, so
prediction, evaluation and CSV or model IO run without ever loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SolverError

__all__ = ["RESIDUAL_RTOL", "FeatureGram", "solve_dual_system", "solve_feature_system"]

RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class FeatureGram:
    """The system matrix Q = Phi Phi^T, held as its m x p feature matrix Phi.

    With `groups` (blocks per independent subsystem, see the module
    docstring) Q is blockdiag(Phi_g Phi_g^T) instead; None is one group.
    """

    features: np.ndarray
    groups: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be an m x p matrix, got shape {features.shape}")
        object.__setattr__(self, "features", features)
        if self.groups is not None:
            groups = tuple(int(g) for g in self.groups)
            if not groups or min(groups) < 1:
                raise ValueError(f"groups must be positive block counts, got {groups}")
            object.__setattr__(self, "groups", groups)


class _Blocks:
    """Validated block structure of a saddle system: samples stacked block by
    block, blocks stacked group by group."""

    def __init__(self, block_sizes, m: int, C: float, jitter: float, groups=None) -> None:
        sizes = np.array(block_sizes, dtype=np.intp)
        if sizes.sum() != m:
            raise ValueError(f"inconsistent system shapes: blocks {sizes.sum()}, y {m}")
        if not C > 0:
            raise ValueError(f"C must be positive, got {C}")
        if jitter < 0:
            raise ValueError(f"jitter must be nonnegative, got {jitter}")
        if (sizes < 1).any():
            raise ValueError(f"every block needs at least one sample, got sizes {sizes.tolist()}")
        n_blocks = sizes.shape[0]
        groups = np.array((n_blocks,) if groups is None else groups, dtype=np.intp)
        if groups.sum() != n_blocks:
            raise ValueError(f"groups hold {groups.sum()} blocks, the system has {n_blocks}")
        self.sizes = sizes
        self.starts = sizes.cumsum() - sizes
        self.of = np.arange(n_blocks).repeat(sizes)
        self.groups = groups
        self.group_blocks = groups.cumsum() - groups  # first block of each group
        self.group_starts = self.starts[self.group_blocks]  # first sample of each group
        self.group_sizes = np.add.reduceat(sizes, self.group_blocks)  # samples of each group

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-block sums along the sample axis (A^T values)."""
        return np.add.reduceat(values, self.starts, axis=0)

    def group_slices(self) -> list[tuple[slice, slice]]:
        """(samples, blocks) of each group."""
        return [
            (slice(s, s + n), slice(k, k + c))
            for s, n, k, c in zip(
                self.group_starts.tolist(), self.group_sizes.tolist(),
                self.group_blocks.tolist(), self.groups.tolist(),
            )
        ]


@cache
def _lapack():
    """LAPACK's (dpotrf, dpotrs), imported on the first call (see the module docstring)."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def _cholesky(H: np.ndarray, what: str, group: int = 0) -> np.ndarray:
    """Lower Cholesky factor of H, in H's memory when H is Fortran-ordered.

    A failed factorization raises SolverError for `group`.
    """
    dpotrf, _ = _lapack()
    factor, info = dpotrf(H, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise SolverError(
            f"{what} is not positive definite (dpotrf info {info}); increase jitter or adjust C",
            group,
        )
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a factor from `_cholesky`; rhs is scratch and may be overwritten."""
    _, dpotrs = _lapack()
    solution, info = dpotrs(factor, rhs, lower=1, overwrite_b=1)
    if info != 0:
        raise SolverError(f"triangular solve failed (dpotrs info {info})")
    return solution


def _refined(blocks: _Blocks, y, inv_c: float, apply_q, solve, biases, duals, always: bool):
    """Residual of the saddle system at (biases, duals), one refinement step, and the check.

    `apply_q(v)` is Q v for the original Q and `solve(g, h)` solves the
    saddle system for the right-hand side [g; h] with the form's factors.
    The step is taken always, or only when a group's residual misses its
    bound. Returns the largest group residual.
    """
    bounds = RESIDUAL_RTOL * (1.0 + np.sqrt(np.add.reduceat(y * y, blocks.group_starts)))

    def saddle_residuals(b: np.ndarray, alpha: np.ndarray):
        top = blocks.sums(alpha)
        bottom = b[blocks.of] + apply_q(alpha) + inv_c * alpha - y
        per_group = np.add.reduceat(top * top, blocks.group_blocks)
        per_group += np.add.reduceat(bottom * bottom, blocks.group_starts)
        return top, bottom, np.sqrt(per_group)

    top, bottom, residuals = saddle_residuals(biases, duals)
    if always or not (residuals <= bounds).all():
        db, dduals = solve(-top, -bottom)
        biases, duals = biases + db, duals + dduals
        _, _, residuals = saddle_residuals(biases, duals)
    # every bias and dual enters its group's residual, so a non-finite
    # solution leaves a non-finite residual and fails here too
    failed = np.flatnonzero(~(residuals <= bounds))
    if failed.size:
        g = int(failed[0])
        raise SolverError(
            f"dual system solve residual {residuals[g]:.3e} exceeds {bounds[g]:.3e}; "
            "increase jitter or adjust C",
            g,
        )
    return biases, duals, float(residuals.max())


def solve_dual_system(
    block_sizes, Q: np.ndarray | FeatureGram, y: np.ndarray, C: float, jitter: float = 0.0
):
    """Solve the saddle-point system above.

    A FeatureGram goes to :func:`solve_feature_system` for every group
    whose rows outnumber Phi's columns, whose p x p factor is then the
    smaller one; any other group, and a dense Q, is solved in the dense
    form with a Schur complement. Returns (biases, coefficients,
    residual_norm) where biases has one entry per block, coefficients one
    per sample, and the residual is the largest group residual. Raises
    SolverError if Q + I/C is not positive definite or a group's residual
    exceeds RESIDUAL_RTOL * (1 + ||y_g||) even after refinement, and
    ValueError on inconsistent shapes, an empty block, C <= 0 or jitter < 0.
    """
    if not isinstance(Q, FeatureGram):
        return _solve_dense(block_sizes, Q, y, C, jitter)
    Phi = Q.features
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if Phi.shape[0] != m:
        raise ValueError(f"inconsistent system shapes: Phi {Phi.shape}, y {m}")
    blocks = _Blocks(block_sizes, m, C, jitter, Q.groups)
    ridge = blocks.group_sizes >= Phi.shape[1]
    if ridge.all():
        return solve_feature_system(block_sizes, Phi, y, C, jitter, Q.groups)

    # The ridge groups are solved together, every other group on its own.
    units = [np.flatnonzero(ridge)] if ridge.any() else []
    units += [np.array([g]) for g in np.flatnonzero(~ridge)]
    biases, duals = np.empty(blocks.sizes.shape[0]), np.empty(m)
    residual, failures = 0.0, []
    for ids in units:
        in_unit = np.zeros(blocks.groups.shape[0], dtype=bool)
        in_unit[ids] = True
        own_blocks = in_unit.repeat(blocks.groups)
        own = own_blocks.repeat(blocks.sizes)
        sizes, Phi_u, y_u = blocks.sizes[own_blocks], Phi[own], y[own]
        try:
            if ridge[ids[0]]:
                b, a, r = solve_feature_system(sizes, Phi_u, y_u, C, jitter, blocks.groups[ids])
            else:
                Q_u = Phi_u @ Phi_u.T
                b, a, r = _solve_dense(sizes, 0.5 * (Q_u + Q_u.T), y_u, C, jitter)
        except SolverError as exc:
            if exc.group is None:
                raise
            exc.group = int(ids[exc.group])
            failures.append(exc)
            continue
        biases[own_blocks], duals[own] = b, a
        residual = max(residual, r)
    if failures:
        raise min(failures, key=lambda exc: exc.group)
    return biases, duals, residual


def _solve_dense(block_sizes, Q: np.ndarray, y: np.ndarray, C: float, jitter: float):
    """The dense form with a Schur complement, for one group."""
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


def solve_feature_system(
    block_sizes, Phi: np.ndarray, y: np.ndarray, C: float, jitter: float = 0.0, groups=None
):
    """Solve the saddle-point system with Q = Phi Phi^T as a centered ridge.

    Same contract as :func:`solve_dual_system`, which calls this for the
    groups of a FeatureGram with p <= m_g; `groups` is the FeatureGram's.
    With 1/C_eff = 1/C + jitter, the p x p matrix Phi~^T Phi~ + I/C_eff of
    the block-centered features Phi~ is Cholesky-factored once per group.
    A right-hand side [g; h] of the saddle system then solves in closed
    form, group by group:

        w   = (Phi~^T Phi~ + I/C_eff)^-1 (Phi~^T h~ + Phi_bar^T g / C_eff)
        b_t = mean_t(h - Phi w) - g_t / (C_eff n_t)
        a   = C_eff (h - A b - Phi w)

    where Phi_bar holds the block means of Phi. The solve for [0; y] is
    always followed by one refinement step on the saddle residual, reusing
    the factors. Exact for every p, but cheaper than the dense form only
    while p stays below the group's sample count.
    """
    y = np.asarray(y, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    m = y.shape[0]
    if Phi.ndim != 2 or Phi.shape[0] != m:
        raise ValueError(f"inconsistent system shapes: Phi {Phi.shape}, y {m}")
    blocks = _Blocks(block_sizes, m, C, jitter, groups)
    sizes = blocks.sizes
    inv_c = 1.0 / C + jitter

    def block_means(values: np.ndarray) -> np.ndarray:
        return blocks.sums(values) / sizes.reshape((-1,) + (1,) * (values.ndim - 1))

    Phi_bar = block_means(Phi)
    Phi_c = Phi - Phi_bar[blocks.of]
    parts = blocks.group_slices()
    factors = []
    for group, (rows, _) in enumerate(parts):
        H = Phi_c[rows].T @ Phi_c[rows]
        H.reshape(-1)[:: H.shape[0] + 1] += inv_c
        # Non-finite entries fail the factorization or the final residual check.
        factors.append(_cholesky(H, "feature system", group))

    def solve(g: np.ndarray, h: np.ndarray):
        h_c = h - block_means(h)[blocks.of]
        fitted = np.empty_like(h)
        for factor, (rows, own) in zip(factors, parts):
            w = _cho_solve(factor, Phi_c[rows].T @ h_c[rows] + inv_c * (Phi_bar[own].T @ g[own]))
            fitted[rows] = Phi[rows] @ w
        b = block_means(h - fitted) - inv_c * g / sizes
        return b, (h - b[blocks.of] - fitted) / inv_c

    def apply_q(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for rows, _ in parts:
            out[rows] = Phi[rows] @ (Phi[rows].T @ v[rows])
        return out

    biases, duals = solve(np.zeros(sizes.shape[0]), y)
    return _refined(blocks, y, inv_c, apply_q, solve, biases, duals, always=True)
