"""Contractive aggregation layer: graph + mean aggregation, residual input,
and row-norm projection.

The layer computes

    X' = c_l * (alpha1 * A_hat @ X + alpha2 * Mean(X)) + beta * X0

where ``A_hat`` is a symmetric normalized adjacency with spectral norm <= 1
and ``Mean`` broadcasts the column-wise mean to every row.  With
``alpha1 + alpha2 = 1`` and ``c_l < 1`` the map is a contraction in the
Frobenius norm with constant ``c_l``; that constant is what the privacy
accountant consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import stream

_ALPHA_TOL = 1e-9

Array = np.ndarray


@dataclass(frozen=True)
class LayerParams:
    """Aggregation coefficients.

    c_l in [0, 1) scales the whole aggregation; alpha1/alpha2 weight the
    adjacency and mean terms and must sum to 1; beta >= 0 scales the
    residual connection to the initial features.
    """

    c_l: float
    alpha1: float
    alpha2: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_l < 1.0:
            raise ValueError(f"c_l must be in [0, 1), got {self.c_l}")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("alpha1 and alpha2 must be non-negative")
        if abs(self.alpha1 + self.alpha2 - 1.0) > _ALPHA_TOL:
            raise ValueError(
                f"alpha1 + alpha2 must equal 1, got {self.alpha1 + self.alpha2!r}"
            )
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


def mean_aggregate(x: Array) -> Array:
    """Broadcast the column-wise mean of ``x`` to every row."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("expected a non-empty 2-D feature matrix")
    return np.broadcast_to(x.mean(axis=0, keepdims=True), x.shape).copy()


def layer_forward(adj, x_k: Array, x_0: Array, params: LayerParams) -> Array:
    """One forward pass of the contractive layer.

    ``adj`` is a (sparse or dense) |V| x |V| normalized adjacency; shapes
    of ``x_k`` and ``x_0`` must agree with it, and |V| must be at least 1.
    The ``adj @ x_k`` product is scaled in place; the mean and residual
    terms are skipped when their weight is 0.
    """
    x_k = np.asarray(x_k, dtype=float)
    x_0 = np.asarray(x_0, dtype=float)
    n = adj.shape[0]
    if x_k.shape != x_0.shape or x_k.ndim != 2 or x_k.shape[0] != n:
        raise ValueError(
            f"shape mismatch: adj {adj.shape}, x_k {x_k.shape}, x_0 {x_0.shape}"
        )
    if n < 1:
        raise ValueError("expected a non-empty 2-D feature matrix")
    out = np.asarray(adj @ x_k, dtype=float)
    out *= params.alpha1
    if params.alpha2 != 0.0:
        out += params.alpha2 * x_k.mean(axis=0, keepdims=True)
    out *= params.c_l
    if params.beta != 0.0:
        out += params.beta * x_0
    return out


def project_rows(x: Array, radius: float = 1.0) -> Array:
    """Scale rows with Euclidean norm above ``radius`` back onto the ball.

    Rows already inside the ball are returned unchanged, so the map is
    idempotent and non-expansive.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    return x * scale


def normalize_rows(x: Array) -> Array:
    """Scale every non-zero row to unit Euclidean norm (zero rows stay zero)."""
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe


def empirical_lipschitz(adj, params: LayerParams, trials: int, seed: int) -> float:
    """Probe the layer's Lipschitz constant with random input pairs.

    Returns max over trials of ||f(X) - f(Y)||_F / ||X - Y||_F with the
    residual term held fixed (it cancels in the difference).  The value
    never exceeds ``params.c_l`` up to rounding.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = adj.shape[0]
    rng = stream(seed, 0xE11)
    x0 = np.zeros((n, 4))
    worst = 0.0
    for _ in range(trials):
        while True:
            x = rng.normal(size=(n, 4))
            y = rng.normal(size=(n, 4))
            gap = float(np.linalg.norm(x - y))
            if gap > 1e-12:
                break
        diff = layer_forward(adj, x, x0, params) - layer_forward(adj, y, x0, params)
        worst = max(worst, float(np.linalg.norm(diff)) / gap)
    return worst
