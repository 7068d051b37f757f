"""Direct solution of the equality-constrained dual systems.

The shared-factor step, the mode-row steps, and the single-task baseline
all reduce to the same symmetric indefinite saddle-point system

    [[0, A^T], [A, Q + I/C]] [b; coef] = [0; y]

with A the block-of-ones constraint matrix pairing samples to tasks. The
cost C is the only regularization: the ridge I/C is the dual of the
LS-SVM penalty C/2 ||e||^2 (Suykens & Vandewalle 1999), so each solve
minimizes the objective that a fit records.

`solve_dual_system` is the one entry point. Q is a dense m x m matrix
(the single-task baseline) or one of three structured forms:

* `FeatureGram`: Q = Phi Phi^T, held as its m x p feature matrix Phi;
* `KroneckerGram`: Q = Phi Phi^T for the features Phi_j = u_t(j) kron x_j
  of a linear shared step, held as the task vectors and the inputs'
  per-task moments, so Phi is never formed;
* `CoherenceGram`: Q_jp = <u_t(j), u_t(p)> G_jp, the task coherence times
  a kernel Gram G, held as the task vectors and G: the shared step of an
  RBF kernel, or of a linear one with dK > m (G = X X^T).

Each kind of system matrix is solved in one form, both forms by
Cholesky. Which kind a shared step hands over is the caller's choice
(`solver.solve_shared_step`):

* Dense with a Schur complement (`_solve_dense`), for a CoherenceGram
  and a dense Q. The solve factors H = Q + I/C in place, in one of two
  owners. For a CoherenceGram, H is written over the upper triangle of
  the caller's Gram G, which LAPACK's dpotrf factors without reading the
  lower one; G is restored from its lower triangle and a saved diagonal
  right after the first solve, and also when that solve raises. So it
  holds no m x m array besides G. For a dense Q (the single-task
  baseline's Gram), each member's H is a fresh copy that it owns,
  because the residual needs Q.
  H is positive definite for a PSD Q, and its Cholesky factor gives
  H^-1 y and H^-1 A in one triangular solve. The biases come from the
  T x T Schur complement A^T H^-1 A, also Cholesky-factored, and the
  duals from alpha = H^-1 (y - A b) (the classic LS-SVM solve, Suykens &
  Vandewalle 1999). A failed factorization flags a Q that is not PSD.
  One refinement step, reusing the Schur factor, follows for a member
  whose residual misses the acceptance bound, and only for it; it reuses
  an owned copy's factor, and for a CoherenceGram writes and factors H
  in G again, which gives the same factor bit for bit. The residual goes
  through Q's operator: G (U o v) summed against U row by row for a
  CoherenceGram (U the m x K task vectors of the samples), Q v for a
  dense Q, one matrix-vector product per member.
* Centered ridge (`_solve_features`), for a FeatureGram and a
  KroneckerGram, exact for every number of features p.
  Centering Phi and y per block eliminates the biases, which leaves a
  p x p ridge system in the primal weights w, solved by Cholesky. Biases
  and duals are recovered from w, and w itself is returned: it is the
  primal solution (a mode row of a fit, or the linear shared factor), and
  a Cholesky solve is backward stable, so it needs no refinement (Higham
  2002, *Accuracy and Stability of Numerical Algorithms*, 10.1 and 12.2).
  A matrix Phi's biases and duals take one refinement step, reusing the
  factors, only when a group misses its residual bound, as in the dense
  form; a KroneckerGram's always take one, because a linear model keeps
  them as its dual form. The step never adds to w: a group that took it
  keeps w if the residual with Phi_g w standing in for Q alpha meets the
  bound at the refined biases and duals, and otherwise takes
  Phi_g^T alpha_g, the weights of the duals that passed the check. So
  every w returned meets the bound with the biases and duals returned
  beside it.
  The ridge reaches the features only through the centered Gram of each
  group, Phi^T v and Phi w. A FeatureGram does these with its matrix; a
  KroneckerGram builds the centered Gram as sum_t (u_t u_t^T) kron S_t
  from the per-task centered moments S_t = X~_t^T X~_t (T K^2 d^2 flops
  instead of m (dK)^2), gets Phi^T v from the per-task sums X_t^T v_t and
  Phi w row by row from X W^T. The S_t are computed on the first ridge
  solve and kept while all of them together take no more memory than Phi
  and its centered copy (2 m dK floats); otherwise each solve sums them
  in runs of tasks that fit that bound.

Both evaluate the residual of the saddle system above with Q itself
(never with a factor), and raise SolverError when it exceeds
RESIDUAL_RTOL * (1 + ||y||).

Every solver takes the block structure as a `Blocks`: the block sizes,
validated once, with everything the solvers derive from them, so a caller
that solves the same structure many times (a fit) builds it once. Blocks
may also carry groups, which make the system a stack of independent
subsystems (all rows of one mode, say): group g is the next groups[g]
blocks, and its samples' rows of Phi form Phi_g, so that for a feature
form Q = blockdiag(Phi_g Phi_g^T). The ridge factors one p x p matrix per
group, whether the group has more samples than p or fewer. Every group's
residual is checked against its own bound RESIDUAL_RTOL * (1 + ||y_g||),
and the reported residual is the largest group residual. A SolverError
carries the 0-based index of the lowest failing group in its `group`
attribute.

Every system is solved for members: B systems on the same block
structure that differ in their cost, and for a structured Q in the
features or task vectors of their Q, and may differ in their data. The
costs are a 1-D array C (one per member), and a structured Q's arrays
carry a leading member axis: a FeatureGram's features are B x m x p, a
KroneckerGram's and a CoherenceGram's task vectors B x T x K. The
right-hand side y is one vector for every member, or B x m for a
FeatureGram's or a KroneckerGram's members. A KroneckerGram's moments
are one object for every member or a tuple with each member's: members
on one dataset hold the same object, which is never copied per member
(`member_runs`). A CoherenceGram's members share one Gram and one y, and
each member's solve restores the Gram before the next one writes it. A
dense Q's members share Q and y, and each factors its own copy of H:
the single-task baseline solves every cost of a task in one call. The
result's arrays carry the member axis too, and its `errors` hold, per
member, None or that member's SolverError (a `MemberSolution`); a
failed member's rows are no solution, and the others go on without it.
The ridge's passes (centering, Grams, right-hand sides, residuals) and
the dense form's residual checks run over all members at once, or once
per run of members that hold the same moments, in operations whose
every member slice is the operation on that member alone, so each
member's result equals that of its solve as the only member, bit for
bit. Every dpotrf and dpotrs stays one LAPACK call per member and
group, and every product with a dense Q one per member. A lone system,
one cost C (with a structured Q's arrays without the member axis), is
the one-member case: `solve_dual_system`, and only it, lifts it to one
member and unwraps the result to a `Solution`, raising the member's
error.

LAPACK's dpotrf and dpotrs come from scipy, which is imported on the first
factorization rather than with this module: only training solves systems,
and importing scipy takes longer than the rest of the package together, so
prediction, evaluation and CSV or model IO run without ever loading it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import SolverError, whole

__all__ = [
    "RESIDUAL_RTOL",
    "Blocks",
    "CoherenceGram",
    "FeatureGram",
    "KroneckerGram",
    "MemberSolution",
    "Solution",
    "TaskMoments",
    "by_run",
    "check_symmetric",
    "member_runs",
    "solve_dual_system",
]

RESIDUAL_RTOL = 1e-8


class Solution(NamedTuple):
    """What a solve returns.

    `biases` has one entry per block, `duals` one per sample, and
    `residual` is the largest group residual. `weights` holds a feature
    form's primal weights, one row w_g per group (G x p): the first ridge
    solve's w, or Phi_g^T alpha_g for a group whose w misses its bound
    after a refinement step. It is None for a dense Q and a CoherenceGram.
    """

    biases: np.ndarray
    duals: np.ndarray
    residual: float
    weights: np.ndarray | None = None


class MemberSolution(NamedTuple):
    """What a solve for members returns: a `Solution`'s fields with the member axis first.

    `residual` holds each member's largest group residual, and `errors`
    each member's SolverError, or None. The rows of a member with an error
    are no solution: NaN where its factorization failed, else the values
    that missed the residual bound.
    """

    biases: np.ndarray
    duals: np.ndarray
    residual: np.ndarray
    weights: np.ndarray | None
    errors: tuple[SolverError | None, ...]


class Blocks(tuple):
    """Validated block structure of a saddle system: the block sizes, as a tuple.

    Samples are stacked block by block and blocks group by group; `groups`
    gives the blocks of each group (None is one group of every block) and
    is kept as an array. It and the derived index arrays are read-only and
    built once; `group_slices` holds the (samples, blocks) slices of each
    group.
    """

    def __new__(cls, block_sizes, groups=None) -> "Blocks":
        sizes = whole(block_sizes, "block sizes", error=ValueError, many=True)
        if (sizes < 1).any():
            raise ValueError(f"every block needs at least one sample, got sizes {sizes.tolist()}")
        self = super().__new__(cls, sizes.tolist())
        n_blocks = len(self)
        if groups is None:
            counts = (n_blocks,)
        else:
            counts = tuple(whole(groups, "groups", error=ValueError, many=True).tolist())
        if min(counts) < 1:
            raise ValueError(f"groups must be positive block counts, got {counts}")
        if sum(counts) != n_blocks:
            raise ValueError(f"groups hold {sum(counts)} blocks, the system has {n_blocks}")
        group_counts = np.array(counts, dtype=np.intp)
        starts = sizes.cumsum() - sizes
        group_blocks = group_counts.cumsum() - group_counts  # first block of each group
        group_starts = starts[group_blocks]  # first sample of each group
        group_sizes = np.add.reduceat(sizes, group_blocks)  # samples of each group
        self.m = int(sizes.sum())
        self.sizes = sizes
        self.starts = starts
        self.of = np.arange(n_blocks).repeat(sizes)  # block of each sample
        self.groups = group_counts
        self.group_blocks = group_blocks
        self.group_starts = group_starts
        self.group_sizes = group_sizes
        for arr in (sizes, starts, self.of, group_counts, group_blocks, group_starts, group_sizes):
            arr.flags.writeable = False
        self.group_slices = tuple(
            (slice(s, s + n), slice(k, k + c))
            for s, n, k, c in zip(
                group_starts.tolist(), group_sizes.tolist(), group_blocks.tolist(), counts
            )
        )
        return self

    def sums(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-block sums along the sample axis `axis` (A^T values)."""
        return np.add.reduceat(values, self.starts, axis=axis)

    def means(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-block means along the sample axis `axis`."""
        trailing = values.ndim - 1 - axis % values.ndim
        return self.sums(values, axis) / self.sizes.reshape((-1,) + (1,) * trailing)


def _costs(C) -> tuple[np.ndarray, bool]:
    """The costs as a 1-D array, and whether C was one cost (a lone solve)."""
    costs = np.asarray(C, dtype=float)
    if costs.ndim > 1 or costs.size == 0:
        raise ValueError(f"C must be one cost or a 1-D array of costs, got shape {costs.shape}")
    return costs.reshape(-1), costs.ndim == 0


def member_runs(shared, B: int) -> list[tuple[slice, object]]:
    """The runs of consecutive members that hold one object, as (members, object) pairs.

    `shared` is one object that all B members hold, or a tuple with each
    member's, in which members holding the same object (by identity) and
    following one another form a run.
    """
    if not isinstance(shared, tuple):
        return [(slice(0, B), shared)]
    if len(shared) != B:
        raise ValueError(f"{len(shared)} per-member objects for {B} members")
    runs, start = [], 0
    for b in range(1, B + 1):
        if b == B or shared[b] is not shared[start]:
            runs.append((slice(start, b), shared[start]))
            start = b
    return runs


def by_run(runs: list, fn) -> np.ndarray:
    """fn(members, object) for each run of `member_runs`, joined along the member axis.

    Each run's result is written into the joined array as it comes, so no
    more than one of them is held beside it.
    """
    first = fn(*runs[0])
    if len(runs) == 1:
        return first
    out = np.empty((runs[-1][0].stop,) + first.shape[1:])
    out[runs[0][0]] = first
    del first
    for members, shared in runs[1:]:
        out[members] = fn(members, shared)
    return out


def _check(blocks: Blocks, m: int, costs: np.ndarray) -> None:
    """The checks every solve makes on its arguments."""
    if not isinstance(blocks, Blocks):
        raise TypeError(f"the block structure must be a linsys.Blocks, got {type(blocks).__name__}")
    if blocks.m != m:
        raise ValueError(f"inconsistent system shapes: blocks {blocks.m}, y {m}")
    bad = costs[~((costs > 0) & (costs < np.inf))]
    if bad.size:
        raise ValueError(f"C must be positive and finite, got {bad[0]}")


def _lifted(Q):
    """A lone structured Q as its one member: its arrays with a member axis of length one."""
    if isinstance(Q, FeatureGram):
        return FeatureGram(Q.features[None])
    return replace(Q, task_vectors=np.asarray(Q.task_vectors, dtype=float)[None])


def _one(solution: MemberSolution) -> Solution:
    """The lone solve of a one-member solution: its arrays, or its error raised."""
    if solution.errors[0] is not None:
        raise solution.errors[0]
    weights = None if solution.weights is None else solution.weights[0]
    return Solution(solution.biases[0], solution.duals[0], float(solution.residual[0]), weights)


@dataclass(frozen=True)
class FeatureGram:
    """The system matrix Q = Phi Phi^T, held as its m x p feature matrix Phi.

    Solved with grouped `Blocks`, Q is blockdiag(Phi_g Phi_g^T) instead
    (see the module docstring). Members stack their matrices B x m x p.
    """

    features: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        if features.ndim not in (2, 3):
            raise ValueError(f"features must be an m x p matrix, got shape {features.shape}")
        object.__setattr__(self, "features", features)


class TaskMoments:
    """Per-task moments of m x d inputs stacked one block per task, computed on first use.

    `means` is T x d (the x_bar_t) and `scatter` T x d x d (the S_t =
    X~_t^T X~_t, X~_t being task t's block less its mean, so a task of one
    sample has S_t = 0). Both are read-only and kept once computed.
    `weighted_scatter` sums the S_t without holding more of them at once
    than a budget allows.
    """

    def __init__(self, blocks: Blocks, inputs: np.ndarray) -> None:
        self.blocks = blocks
        self.inputs = inputs

    @cached_property
    def means(self) -> np.ndarray:
        means = self.blocks.means(self.inputs)
        means.flags.writeable = False
        return means

    @cached_property
    def scatter(self) -> np.ndarray:
        scatter = self._scatter(0, len(self.blocks))
        scatter.flags.writeable = False
        return scatter

    def _scatter(self, first: int, stop: int) -> np.ndarray:
        """The S_t of tasks first..stop-1."""
        b = self.blocks
        lo = int(b.starts[first])
        sizes = b.sizes[first:stop]
        rows = self.inputs[lo : lo + int(sizes.sum())]
        centered = rows - self.means[first:stop].repeat(sizes, axis=0)
        d = rows.shape[1]
        scatter = np.empty((stop - first, d, d))
        for t, (s, n) in enumerate(zip((b.starts[first:stop] - lo).tolist(), sizes.tolist())):
            own = centered[s : s + n]
            scatter[t] = own.T @ own
        return scatter

    def weighted_scatter(self, weights: np.ndarray, budget: int) -> np.ndarray:
        """sum_t weights[t, r] S_t for every column r of the T x R weights, as R x d^2.

        All S_t are taken from `scatter` (computed and kept) when they fit
        in `budget` floats; otherwise they are computed and dropped run by
        run, each run of tasks fitting the budget. The choice depends only
        on the sizes, so the sums do not depend on what ran before. Weights
        stacked B x T x R give the sums B x R x d^2.
        """
        T, d = len(self.blocks), self.inputs.shape[1]
        per = max(1, budget // max(1, d * d))  # tasks per run
        columns = np.swapaxes(weights, -1, -2)
        if per >= T:
            return columns @ self.scatter.reshape(T, d * d)
        total = np.zeros(columns.shape[:-1] + (d * d,))
        for first in range(0, T, per):
            stop = min(first + per, T)
            total += columns[..., first:stop] @ self._scatter(first, stop).reshape(stop - first, d * d)
        return total


@dataclass(frozen=True)
class KroneckerGram:
    """Q = Phi Phi^T for the features Phi_j = u_t(j) kron x_j, never formed.

    `task_vectors` is T x K (B x T x K for members) and `moments` the
    `TaskMoments` of the m x d inputs, every task a block of the system,
    or for members a tuple with each member's (`member_runs`). Feature
    k*d + i of sample j is u_t(j),k x_j,i. It is always solved as the
    centered ridge.
    """

    task_vectors: np.ndarray
    moments: TaskMoments | tuple[TaskMoments, ...]

    def check(self, blocks: Blocks) -> None:
        """Checks the members' form: task vectors B x T x K."""
        if len(blocks.groups) != 1:
            raise ValueError("a KroneckerGram system has a single group")
        T = self.task_vectors.shape[-2]
        runs = member_runs(self.moments, len(self.task_vectors))
        d = runs[0][1].inputs.shape[1]
        for _, moments in runs:
            if len(blocks) != T or moments.blocks != blocks or moments.inputs.shape[1] != d:
                raise ValueError(
                    f"inconsistent system shapes: {T} task vectors, moments of blocks "
                    f"{list(moments.blocks)} and {moments.inputs.shape[1]} features, "
                    f"system blocks {list(blocks)}"
                )


_STRIP = 128  # rows per strip of the passes over a Gram's triangles
_UPPER = ~np.tri(_STRIP, k=-1, dtype=bool)  # the upper triangle of a diagonal tile
_STRICT_UPPER = ~np.tri(_STRIP, dtype=bool)


def check_symmetric(G: np.ndarray) -> None:
    """Raise ValueError unless the square float64 array G equals its transpose bit for bit."""
    m = G.shape[0]
    bits = G.view(np.int64)
    for r0 in range(0, m, _STRIP):
        r1 = min(r0 + _STRIP, m)
        if not np.array_equal(bits[r0:r1, r0:], bits[r0:, r0:r1].T):
            raise ValueError("the Gram of a CoherenceGram must be exactly symmetric")


@dataclass(frozen=True)
class CoherenceGram:
    """Q_jp = <u_t(j), u_t(p)> G_jp: the task coherence times an m x m kernel Gram G.

    `task_vectors` is T x K (B x T x K for members, who share G), every
    task a block of the system. This is the shared step's system matrix
    for a kernel without a finite feature map.

    G is the dense solve's workspace, so it must be an exactly symmetric,
    writable, C-contiguous float64 array, as `kernels.gram` returns it.
    The solve writes H = Q + I/C over G's upper triangle and factors it
    there; then it restores that triangle from the lower one and the
    diagonal from a saved copy, also when the solve raises. The caller
    gets G back bit for bit, and no m x m array is held beside it. The
    residual goes through `matvec` on the restored G: G (U o v) summed
    against U row by row. Every solve compares G's triangles
    (`check_symmetric`), since the restore copies the lower one over the
    upper one. Only `solver.fit_many`, which compares the Gram it builds
    once, sets the private `_compared` to skip that for its steps.
    """

    task_vectors: np.ndarray
    gram: np.ndarray
    _compared: bool = field(default=False, kw_only=True, repr=False)

    def check(self, blocks: Blocks) -> None:
        """Checks the members' form: task vectors B x T x K."""
        T, m, G = self.task_vectors.shape[-2], blocks.m, self.gram
        if len(blocks.groups) != 1:
            raise ValueError("a CoherenceGram system has a single group")
        if not (
            isinstance(G, np.ndarray) and G.dtype == np.float64
            and G.flags.c_contiguous and G.flags.writeable
        ):
            raise ValueError(
                "the Gram of a CoherenceGram is the solve's workspace: "
                "it must be a writable, C-contiguous float64 array"
            )
        if len(blocks) != T or G.shape != (m, m):
            raise ValueError(
                f"inconsistent system shapes: {T} task vectors, Gram {G.shape}, "
                f"system blocks {list(blocks)}"
            )
        if not self._compared:
            check_symmetric(G)

    @contextmanager
    def factored(self, blocks: Blocks, shift: float):
        """The lower Cholesky factor of Q + shift I, held in G's upper triangle while open.

        Rows are scaled strip by strip, task by task: a strip's rectangle
        right of its diagonal tile by the coherences of the columns' tasks,
        the tile's upper triangle by the task's own. Each entry is
        fl(coherence G_jp), with shift added on the diagonal.
        """
        G = self.gram
        m = blocks.m
        diagonal = G.diagonal().copy()
        try:
            coherence = self.task_vectors @ self.task_vectors.T
            coherence = 0.5 * (coherence + coherence.T)
            for t, (s, n) in enumerate(zip(blocks.starts.tolist(), blocks.sizes.tolist())):
                own = coherence[t]
                row = own[blocks.of[s:]]  # task t's coherence with samples s..m-1
                for r0 in range(s, s + n, _STRIP):
                    r1 = min(r0 + _STRIP, s + n)
                    G[r0:r1, r1:] *= row[r1 - s :]
                    tile = G[r0:r1, r0:r1]
                    np.multiply(tile, own[t], out=tile, where=_UPPER[: r1 - r0, : r1 - r0])
            G.reshape(-1)[:: m + 1] += shift
            # G.T is Fortran-ordered, so LAPACK factors it in place; its
            # lower triangle is G's upper one
            yield _cholesky(G.T, "Q + I/C")
        finally:
            for r0 in range(0, m, _STRIP):
                r1 = min(r0 + _STRIP, m)
                tile = G[r0:r1, r0:r1]
                np.copyto(tile, tile.T, where=_STRICT_UPPER[: r1 - r0, : r1 - r0])
                G[r0:r1, r1:] = G[r1:, r0:r1].T
            G.reshape(-1)[:: m + 1] = diagonal

    def matvec(self, blocks: Blocks, v: np.ndarray) -> np.ndarray:
        """Q v, without forming Q."""
        U = self.task_vectors[blocks.of]  # m x K
        return np.einsum("jk,jk->j", self.gram @ (U * v[:, None]), U)


class _MatrixFeatures:
    """The ridge operations of members' explicit matrices (B x m x p), group by group."""

    def __init__(self, Phi: np.ndarray, blocks: Blocks) -> None:
        self.Phi = Phi
        self.bar = blocks.means(Phi, axis=1)
        self.centered = Phi - self.bar.take(blocks.of, axis=1)
        self.parts = blocks.group_slices
        self.width = Phi.shape[2]

    def grams(self) -> list[np.ndarray]:
        return [_gram_of(self.centered[:, rows]) for rows, _ in self.parts]

    def rmatvec(self, v: np.ndarray) -> list:
        return [_columns_times(self.Phi[:, rows], v[:, rows]) for rows, _ in self.parts]

    def rhs(self, h_c: np.ndarray, g: np.ndarray, inv_c: np.ndarray) -> list:
        return [
            _columns_times(self.centered[:, rows], h_c[:, rows])
            + inv_c[:, None] * _columns_times(self.bar[:, own], g[:, own])
            for rows, own in self.parts
        ]

    def matvec(self, weights: list) -> np.ndarray:
        out = np.empty(self.Phi.shape[:2])
        for w, (rows, _) in zip(weights, self.parts):
            out[:, rows] = (self.Phi[:, rows] @ w[:, :, None])[..., 0]
        return out


def _gram_of(A: np.ndarray) -> np.ndarray:
    """A_b^T A_b for each member b of a B x n x p stack."""
    return np.swapaxes(A, 1, 2) @ A


def _columns_times(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_b^T v_b for each member b of a B x n x p stack and B x n vectors."""
    return (np.swapaxes(A, 1, 2) @ v[:, :, None])[..., 0]


class _KroneckerFeatures:
    """The ridge operations of members' KroneckerGrams, from per-task sums (one group).

    Each operation runs once per run of members that share their moments,
    in the form it takes for members on one dataset.
    """

    def __init__(self, Q: KroneckerGram, blocks: Blocks) -> None:
        Q.check(blocks)
        self.task_vectors = Q.task_vectors  # B x T x K
        self.runs = member_runs(Q.moments, len(Q.task_vectors))
        self.m, self.d = self.runs[0][1].inputs.shape
        self.sample_vectors = Q.task_vectors.take(blocks.of, axis=1)  # B x m x K
        self.width = Q.task_vectors.shape[2] * self.d

    def grams(self) -> list[np.ndarray]:
        U = self.task_vectors
        B, T, K = U.shape
        d = self.d
        outer = (U[:, :, :, None] * U[:, :, None, :]).reshape(B, T, K * K)
        # the S_t held at once never outgrow Phi and its centered copy, the
        # two m x dK arrays that the explicit form of this ridge would hold
        budget = 2 * self.m * K * d

        # entry (k*d + i, l*d + j) of a member's Gram is row (k, l), column
        # (i, j) of its weighted sum; each member's Gram is laid out in
        # Fortran order, as LAPACK factors it in place
        def run(own: slice, moments: TaskMoments) -> np.ndarray:
            H = moments.weighted_scatter(outer[own], budget).reshape(-1, K, K, d, d)
            return H.transpose(0, 2, 4, 1, 3).reshape(-1, K * d, K * d)

        return [np.swapaxes(by_run(self.runs, run), 1, 2)]

    def rmatvec(self, v: np.ndarray) -> list:
        # Phi^T v = sum_j v_j u_t(j) kron x_j
        weighted = np.swapaxes(self.sample_vectors * v[:, :, None], 1, 2)
        return [by_run(self.runs, lambda own, moments: weighted[own] @ moments.inputs).reshape(len(v), -1)]

    def rhs(self, h_c: np.ndarray, g: np.ndarray, inv_c: np.ndarray) -> list:
        # Phi~^T h~ equals Phi^T h~ for a block-centered h~, and
        # Phi_bar^T g = sum_t g_t u_t kron x_bar_t
        (out,) = self.rmatvec(h_c)
        weighted = np.swapaxes(self.task_vectors * g[:, :, None], 1, 2)
        bar = by_run(self.runs, lambda own, moments: weighted[own] @ moments.means)
        return [out + inv_c[:, None] * bar.reshape(len(g), -1)]

    def matvec(self, weights: list) -> np.ndarray:
        (w,) = weights
        W = np.swapaxes(w.reshape(len(w), self.sample_vectors.shape[2], -1), 1, 2)
        return by_run(self.runs, lambda own, moments: np.einsum(
            "bjk,bjk->bj", moments.inputs @ W[own], self.sample_vectors[own]
        ))


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
            f"{what} is not positive definite (dpotrf info {info}); decrease C",
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


def _refined(
    blocks: Blocks, y, inv_c: np.ndarray, apply_q, solve, biases, duals, always: bool, fitted=None
):
    """Residual of the saddle system at (biases, duals), one refinement step, and the check.

    Every array carries the member axis first: `inv_c` holds each member's
    1/C, `biases` is B x T and `duals` B x m; `y` is one vector for every
    member or B x m, and each member's bounds are its own. `apply_q(v)` is
    Q v for the original Q and `solve(g, h, stepped)` solves the saddle
    system for the right-hand side [g; h] with the form's factors, member
    by member; only the groups that `stepped` (B x G) marks are read from
    it, so a form may solve no others. A group that misses its bound at
    the first solution takes the values of one refinement step; with
    `always` (a KroneckerGram ridge) every group takes them, and otherwise
    the groups within their bounds keep the first solution. Each group's
    residual is checked at the values returned for it.

    `fitted` is Phi w for the first solve's primal weights w, if it has
    them. A group that took the step keeps its w only if the residual with
    Phi_g w_g standing in for (Q alpha)_g also meets the bound at the
    returned (biases, duals). Returns (biases, duals, each member's largest
    group residual, replaced, errors), `replaced` marking the groups whose
    w did not, which take Phi_g^T alpha_g instead, and `errors` holding
    each member's SolverError for its lowest failing group, or None.
    """
    bounds = RESIDUAL_RTOL * (1.0 + np.sqrt(np.add.reduceat(y * y, blocks.group_starts, axis=-1)))

    def saddle_residuals(b: np.ndarray, alpha: np.ndarray, q_alpha: np.ndarray):
        return blocks.sums(alpha, axis=1), b.take(blocks.of, axis=1) + q_alpha + inv_c[:, None] * alpha - y

    def norms(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
        per_group = np.add.reduceat(top * top, blocks.group_blocks, axis=1)
        per_group += np.add.reduceat(bottom * bottom, blocks.group_starts, axis=1)
        return np.sqrt(per_group)

    top, bottom = saddle_residuals(biases, duals, apply_q(duals))
    residuals = None if always else norms(top, bottom)
    stepped = np.full((len(inv_c), len(blocks.groups)), True) if always else ~(residuals <= bounds)
    replaced = np.zeros_like(stepped)
    if stepped.any():
        db, dduals = solve(-top, -bottom, stepped)
        if stepped.all():
            biases, duals = biases + db, duals + dduals
        else:  # the groups within their bounds keep the first solution
            stepped_blocks = stepped.repeat(blocks.groups, axis=1)
            biases = np.where(stepped_blocks, biases + db, biases)
            duals = np.where(stepped_blocks.repeat(blocks.sizes, axis=1), duals + dduals, duals)
        checked = norms(*saddle_residuals(biases, duals, apply_q(duals)))
        residuals = checked if stepped.all() else np.where(stepped, checked, residuals)
        if fitted is not None:
            replaced = stepped & ~(norms(*saddle_residuals(biases, duals, fitted)) <= bounds)
    # every bias and dual enters its group's residual, so a non-finite
    # solution leaves a non-finite residual and fails here too
    failed = ~(residuals <= bounds)
    errors = [None] * len(inv_c)
    for member in np.flatnonzero(failed.any(axis=1)).tolist():
        g = int(np.argmax(failed[member]))
        residual = residuals[member, g]
        if np.isfinite(residual):
            bound = (bounds[member] if bounds.ndim == 2 else bounds)[g]
            message = f"dual system solve residual {residual:.3e} exceeds {bound:.3e}; decrease C"
        else:  # C cannot mend a system with a non-finite entry in Q or y
            message = f"dual system has non-finite entries (solve residual {residual:.3e})"
        errors[member] = SolverError(message, g)
    return biases, duals, residuals.max(axis=1), replaced, errors


def solve_dual_system(
    blocks: Blocks,
    Q: np.ndarray | FeatureGram | KroneckerGram | CoherenceGram,
    y: np.ndarray,
    C: float | np.ndarray,
) -> Solution | MemberSolution:
    """Solve the saddle-point system above for the block structure `blocks`.

    A FeatureGram and a KroneckerGram are solved as the centered ridge, a
    CoherenceGram and a dense Q in the dense form with a Schur complement.
    A 1-D array C solves members (see the module docstring), on one y, or
    on B x m targets for a FeatureGram or a KroneckerGram, and returns a
    `MemberSolution`, with each member's SolverError in its `errors`; a
    dense Q's members share Q and y and differ in their cost. One cost C
    solves a lone system as its one member and returns a `Solution`
    (biases, duals, residual, weights); it raises SolverError if Q + I/C
    is not positive definite or a group's residual exceeds RESIDUAL_RTOL *
    (1 + ||y_g||) even after refinement. Raises TypeError when `blocks` is
    not a Blocks, and ValueError on inconsistent shapes or a C that is not
    positive and finite.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be a vector or one per member, got shape {y.shape}")
    m = y.shape[-1]
    costs, lone = _costs(C)
    _check(blocks, m, costs)
    if y.ndim == 2 and (lone or len(y) != len(costs) or not isinstance(Q, (FeatureGram, KroneckerGram))):
        raise ValueError(f"targets of shape {y.shape} are one per member of a structured Q, got {len(costs)} costs")
    if isinstance(Q, (FeatureGram, KroneckerGram, CoherenceGram)):
        if lone:
            Q = _lifted(Q)
        stack = Q.features if isinstance(Q, FeatureGram) else Q.task_vectors
        if stack.ndim != 3 or len(stack) != len(costs) or (isinstance(Q, FeatureGram) and stack.shape[1] != m):
            raise ValueError(f"inconsistent system shapes: member arrays {stack.shape}, {len(costs)} costs, y {m}")
        solve = _solve_coherence if isinstance(Q, CoherenceGram) else _solve_features
    else:
        solve = _solve_matrix
    solution = solve(blocks, Q, y, costs)
    return _one(solution) if lone else solution


def _solve_matrix(blocks: Blocks, Q, y: np.ndarray, costs: np.ndarray) -> MemberSolution:
    """A dense Q's members, each factoring its own H = Q + I/C, which it keeps for a refinement step."""
    m = blocks.m
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (m, m):
        raise ValueError(f"inconsistent system shapes: Q {Q.shape}, y {m}")
    inv_c = 1.0 / costs
    factors = {}

    def factored(b: int):
        if b not in factors:
            # the copy is the solve's, since the residual needs Q; H.T is
            # Fortran-ordered, so LAPACK factors it in place, and its lower
            # triangle is H's upper one, the same for a symmetric Q
            H = np.array(Q, order="C")
            H.reshape(-1)[:: m + 1] += inv_c[b]
            factors[b] = _cholesky(H.T, "Q + I/C")
        return nullcontext(factors[b])

    return _solve_dense(blocks, factored, y, inv_c, lambda v: Q @ v)


def _solve_coherence(blocks: Blocks, Q: CoherenceGram, y: np.ndarray, costs: np.ndarray) -> MemberSolution:
    """A CoherenceGram's members, one dense solve after another in the shared Gram."""
    Q.check(blocks)
    U = np.asarray(Q.task_vectors, dtype=float)
    inv_c = 1.0 / costs
    solutions = []
    for b in range(len(costs)):
        member = CoherenceGram(U[b], Q.gram)
        solutions.append(_solve_dense(
            blocks, lambda _: member.factored(blocks, inv_c[b]), y, inv_c[b : b + 1],
            lambda v: member.matvec(blocks, v),
        ))
    return MemberSolution(
        *(np.concatenate(parts) for parts in zip(*(s[:3] for s in solutions))),
        None,
        tuple(s.errors[0] for s in solutions),
    )


def _solve_dense(blocks: Blocks, factored, y: np.ndarray, inv_c: np.ndarray, apply_q) -> MemberSolution:
    """The dense form with a Schur complement, for members of one group that share Q and y.

    `factored(b)` opens member b's lower Cholesky factor of H_b = Q +
    inv_c[b] I as a context manager: a factor that a dense Q's member
    owns, or `CoherenceGram.factored`, which writes and factors H in the
    Gram's upper triangle on every opening and restores the Gram on
    closing. Each member uses its factor for the first solve, closes it,
    and opens it again only for a refinement step, which only the members
    that missed their bound take. `apply_q(v)` is Q v, by which the
    residual is checked. A member whose factorization fails gets NaN rows
    and keeps its SolverError without the traceback: the error may
    outlive the solve, and the traceback's frames hold the Gram.
    """
    B, m, T = len(inv_c), blocks.m, len(blocks)
    rhs = np.zeros((m, 1 + T), order="F")
    rhs[:, 0] = y
    rhs[np.arange(m), 1 + blocks.of] = 1.0  # columns 1.. hold A
    biases, duals = np.full((B, T), np.nan), np.full((B, m), np.nan)
    hinv_a, schur = [None] * B, [None] * B
    errors: list[SolverError | None] = [None] * B

    def from_hinv(b: int, g: np.ndarray, Hinv_h: np.ndarray):
        bias = _cho_solve(schur[b], blocks.sums(Hinv_h) - g)
        return bias, Hinv_h - hinv_a[b] @ bias

    for b in range(B):
        try:
            with factored(b) as factor:
                first = _cho_solve(factor, rhs.copy(order="F"))
            hinv_a[b] = first[:, 1:]
            schur[b] = _cholesky(blocks.sums(hinv_a[b]), "Schur complement A^T H^-1 A")
            biases[b], duals[b] = from_hinv(b, np.zeros(T), first[:, 0])
        except SolverError as exc:
            errors[b] = exc.with_traceback(None)

    def solve(g: np.ndarray, h: np.ndarray, stepped: np.ndarray):
        db, dduals = np.zeros((B, T)), np.zeros((B, m))
        for b in np.flatnonzero(stepped[:, 0]).tolist():
            if errors[b] is None:  # a failed member's rows stay NaN
                with factored(b) as factor:
                    Hinv_h = _cho_solve(factor, h[b])
                db[b], dduals[b] = from_hinv(b, g[b], Hinv_h)
        return db, dduals

    biases, duals, residual, _, checked = _refined(
        blocks, y, inv_c, lambda v: np.stack([apply_q(row) for row in v]), solve, biases, duals,
        always=False,
    )
    return MemberSolution(biases, duals, residual, None, tuple(own or got for own, got in zip(errors, checked)))


def _solve_features(
    blocks: Blocks, Q: FeatureGram | KroneckerGram, y: np.ndarray, costs: np.ndarray
) -> MemberSolution:
    """The members of a FeatureGram or a KroneckerGram (one group), each solved as a centered ridge.

    The p x p matrix Phi~^T Phi~ + I/C of the block-centered features
    Phi~ is Cholesky-factored once per group and member. A right-hand side
    [g; h] of the saddle system then solves in closed form, group by group:

        w   = (Phi~^T Phi~ + I/C)^-1 (Phi~^T h~ + Phi_bar^T g / C)
        b_t = mean_t(h - Phi w) - g_t / (C n_t)
        a   = C (h - A b - Phi w)

    where Phi_bar holds the block means of Phi. The w of the solve for
    [0; y] are returned as the weights, one row per group: they are the
    primal solution itself, backward stable as a Cholesky solve is, where
    Phi^T a would rebuild them as a sum that cancels. The biases and duals
    of a FeatureGram (the mode rows of a fit, whose duals only feed a
    constraint check) take a refinement step only when a group misses its
    residual bound; those of a KroneckerGram, which a linear model keeps
    as its dual form, always take one step. A refinement step reuses the
    factors and never adds to w. A group that took one keeps its w only if
    the residual with Phi_g w standing in for Q alpha meets the bound at
    the refined biases and duals; otherwise its weights are Phi_g^T
    alpha_g of those duals, which the residual check passed. Exact for
    every p: a group with fewer samples than p still factors its p x p
    matrix, which the ridge I/C keeps positive definite. A member whose
    factorization fails keeps the error of its lowest failing group and
    solves with NaN factors, to NaN rows.
    """
    kronecker = isinstance(Q, KroneckerGram)
    features = _KroneckerFeatures(Q, blocks) if kronecker else _MatrixFeatures(Q.features, blocks)
    inv_c = 1.0 / costs
    factors, errors = _factored(features, inv_c, len(blocks.groups))
    solution = _solve_ridge(blocks, features, factors, y, inv_c, kronecker)
    return solution._replace(errors=tuple(own or got for own, got in zip(errors, solution.errors)))


def _factored(features, inv_c: np.ndarray, n_groups: int) -> tuple[list, list]:
    """Each member's Cholesky factor of every group's Phi~^T Phi~ + I/C (`factors[b][g]`), and its failure.

    A member whose factorization fails gets the error of its lowest
    failing group and NaN factors. A member's Gram laid out in Fortran
    order is factored in place, any other in a copy.
    """
    B = len(inv_c)
    errors: list[SolverError | None] = [None] * B
    factors: list[list] = [[] for _ in range(B)]
    for group, H in enumerate(features.grams()):
        # a member's diagonal is that of its transpose, which is C-ordered for a Fortran-ordered Gram
        rows = H if H.flags.c_contiguous else np.swapaxes(H, 1, 2)
        rows.reshape(B, -1)[:, :: H.shape[-1] + 1] += inv_c[:, None]
        for b in range(B):
            if errors[b] is None:
                # Non-finite entries fail the factorization or the final residual check.
                try:
                    factors[b].append(_cholesky(H[b], "feature system", group))
                except SolverError as exc:
                    errors[b] = exc
    nan = np.full((features.width, features.width), np.nan)
    for b, error in enumerate(errors):
        if error is not None:  # its solve gives NaN rows
            factors[b] = [nan] * n_groups
    return factors, errors


def _solve_ridge(blocks: Blocks, features, factors: list, y: np.ndarray, inv_c: np.ndarray, kronecker: bool):
    """The ridge solves of members with the factor of every group (`factors[b][g]`), and their check."""
    B, m = len(inv_c), blocks.m

    def solve_with_weights(g: np.ndarray, h: np.ndarray):
        h_c = h - blocks.means(h, axis=1).take(blocks.of, axis=1)
        rhs = features.rhs(h_c, g, inv_c)
        weights = [
            np.stack([_cho_solve(member[group], r[b]) for b, member in enumerate(factors)])
            for group, r in enumerate(rhs)
        ]
        fitted = features.matvec(weights)
        b = blocks.means(h - fitted, axis=1) - inv_c[:, None] * g / blocks.sizes
        return b, (h - b.take(blocks.of, axis=1) - fitted) / inv_c[:, None], weights, fitted

    targets = y if y.ndim == 2 else np.repeat(y[None], B, axis=0)
    biases, duals, weights, fitted = solve_with_weights(np.zeros((B, len(blocks))), targets)
    biases, duals, residual, replaced, errors = _refined(
        blocks, y, inv_c, lambda v: features.matvec(features.rmatvec(v)),
        lambda g, h, _: solve_with_weights(g, h)[:2], biases, duals, kronecker, fitted,
    )
    weights = np.stack(weights, axis=1)
    if replaced.any():
        checked = features.rmatvec(duals)
        for b, g in zip(*np.nonzero(replaced)):
            weights[b, g] = checked[g][b]
    return MemberSolution(biases, duals, residual, weights, tuple(errors))
