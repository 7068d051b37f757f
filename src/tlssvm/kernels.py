"""Kernel functions, explicit feature maps, and Gram assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedOperation, config_object, positive

__all__ = ["KernelSpec", "sq_norms", "gram", "feature_map"]

_FAMILIES = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    linear: k(x, x') = <x, x'>, with the identity as explicit feature map.
    rbf:    k(x, x') = exp(-gamma * ||x - x'||^2), gamma > 0; no finite
            feature map exists, so callers must stay on dual paths.
    """

    family: str
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}, expected one of {_FAMILIES}")
        if self.family == "rbf":
            object.__setattr__(self, "gamma", positive(self.gamma, "rbf kernel gamma", needs="a finite gamma > 0"))
        elif self.gamma is not None:
            raise ConfigError("gamma is only meaningful for the rbf kernel")

    @property
    def has_feature_map(self) -> bool:
        return self.family == "linear"

    def to_config(self) -> dict:
        out = {"family": self.family}
        if self.gamma is not None:
            out["gamma"] = self.gamma
        return out

    @classmethod
    def from_config(cls, cfg: dict) -> "KernelSpec":
        return cls(**config_object(cfg, "kernel config", ("family",), ("gamma",)))


def sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a 2-D float array: the RBF Gram's row terms."""
    return (X * X).sum(axis=1)


def gram(spec: KernelSpec, X, X_other=None, X_norms: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between the rows of X and X_other.

    With X_other omitted the result is the (exactly symmetrized) square
    Gram matrix of X, symmetrized in place: no second m x m array is made.
    `X_norms`, if given, must be `sq_norms` of X as a float array, so
    that the RBF Gram has the bits it would have without it; a model that
    predicts often computes it once. A linear Gram never reads it.
    """
    X = np.asarray(X, dtype=float)
    symmetric = X_other is None
    Xo = X if symmetric else np.asarray(X_other, dtype=float)
    if X.ndim != 2 or Xo.ndim != 2:
        raise ValueError("sample matrices must be 2-D")
    if X.shape[1] != Xo.shape[1]:
        raise ValueError(f"feature dimensions differ: {X.shape[1]} vs {Xo.shape[1]}")
    G = X @ Xo.T
    if spec.family == "rbf":
        # ||x||^2 + ||x'||^2 - 2 <x, x'>, then the exponential, all in G's buffer
        norms = sq_norms(X) if X_norms is None else X_norms
        if norms.shape != (X.shape[0],):
            raise ValueError(f"{norms.shape} row norms for {X.shape[0]} samples")
        G *= -2.0
        G += norms[:, None]
        G += (norms if symmetric else sq_norms(Xo))[None, :]
        np.maximum(G, 0.0, out=G)
        G *= -spec.gamma
        np.exp(G, out=G)
    if symmetric:
        _symmetrize(G)
    return G


_STRIP = 128  # rows per strip of the in-place passes over a square matrix


def _symmetrize(G: np.ndarray) -> None:
    """G := (G + G^T) / 2 in place, strip by strip, without an m x m temporary.

    Entries (i, j) and (j, i) both become fl(a + b) * 0.5, the bits that
    `G += G.T; G *= 0.5` gives, since fl(a + b) = fl(b + a). A strip's
    rectangle right of its diagonal tile and that rectangle's mirror never
    overlap in memory, so numpy copies only the diagonal tiles.
    """
    m = G.shape[0]
    for r0 in range(0, m, _STRIP):
        r1 = min(r0 + _STRIP, m)
        tile = G[r0:r1, r0:r1]
        tile += tile.T
        tile *= 0.5
        if r1 < m:  # a Gram of one strip is its diagonal tile
            upper = G[r0:r1, r1:]
            upper += G[r1:, r0:r1].T
            upper *= 0.5
            G[r1:, r0:r1] = upper.T


def feature_map(spec: KernelSpec, x) -> np.ndarray:
    """Explicit feature map phi(x); only kernels with a finite map support this."""
    if not spec.has_feature_map:
        raise UnsupportedOperation(
            f"{spec.family} kernel has no explicit feature map; use the dual path"
        )
    x = np.array(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-D vector, got shape {x.shape}")
    return x
