"""Contractive aggregation layer: graph + mean aggregation, residual input,
and row-norm projection.

The layer computes

    X' = c_l * (alpha1 * A_hat @ X + alpha2 * Mean(X)) + beta * X0

where ``A_hat`` is a symmetric normalized adjacency with spectral norm <= 1
and ``Mean`` broadcasts the column-wise mean to every row.  With
``alpha1 + alpha2 = 1`` and ``c_l < 1`` the map is a contraction in the
Frobenius norm with constant ``c_l``; that constant is what the privacy
accountant consumes.

``layer_forward`` is this map in float64.  The release's hops form the same
rows from the float32 product that ``graphs`` gives for a float32 copy of
X, and every other term in float64; ``accountant`` charges the difference
to the sensitivity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_ALPHA_TOL = 1e-9

Array = np.ndarray


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least``; a bool or float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


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
        for name in ("alpha1", "alpha2", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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


def layer_forward(adj, x_k: Array, x_0: Array, params: LayerParams) -> Array:
    """One forward pass of the contractive layer.

    ``adj`` is a (sparse or dense) |V| x |V| normalized adjacency; shapes
    of ``x_k`` and ``x_0`` must agree with it, and |V| must be at least 1.
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
    return _layer_rows(adj @ x_k, x_0, _mean_term(x_k, params), params)


def _mean_term(x_k: Array, params: LayerParams) -> Array | None:
    """``alpha2 * Mean(x_k)`` as one row, or None when alpha2 is 0."""
    if params.alpha2 == 0.0:
        return None
    # a float32 iterate is summed in float64
    return params.alpha2 * x_k.mean(axis=0, keepdims=True, dtype=np.float64)


def _layer_rows(product: Array, x0_rows: Array, mean_term: Array | None,
                params: LayerParams) -> Array:
    """Rows of the layer output, in float64:
    ``c_l * (alpha1 * product + mean_term) + beta * x0_rows``.

    ``product`` holds the wanted rows of ``A_hat @ x_k`` and ``x0_rows``
    the same rows of X0; ``x_k`` may hold T iterates side by side in its
    columns, (n, T*d), and ``x0_rows`` is then (m, T, d), one X0 per
    iterate, or (m, d) or (m, 1, d), one X0 that they share.
    ``mean_term`` comes from ``_mean_term`` on the whole of ``x_k``.  The
    product may be float32 (the hops'); every later term is float64.  The
    sum is formed in the product when it is float64, else in a fresh
    array, and returned; the mean and residual terms are skipped when
    their weight is 0.
    """
    # the float64 loop, also for a float32 product
    out = np.multiply(product, params.alpha1, dtype=np.float64,
                      out=product if product.dtype == np.float64 else None)
    if mean_term is not None:
        out += mean_term
    out *= params.c_l
    if params.beta != 0.0:
        residual = params.beta * x0_rows
        # iterate t's columns take X0 number t, or the one X0 they share
        d = residual.shape[-1]
        out.reshape(len(out), -1, d, copy=False)[...] += residual.reshape(len(out), -1, d)
    return out


def project_rows(x: Array) -> Array:
    """Scale rows with Euclidean norm above 1 back onto the unit ball.

    Rows already inside the ball are returned unchanged, so the map is
    idempotent and non-expansive.
    """
    x = np.array(x, dtype=float)
    _project_rows_inplace(x)
    return x


def _project_rows_inplace(x: Array) -> None:
    """``project_rows`` on ``x`` itself: each row is scaled by a factor
    computed from that row alone.  A row inside the ball is scaled by
    exactly 1; a row with a NaN norm is kept as it is, since ``fmax``
    passes over the NaN."""
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    x *= 1.0 / np.fmax(norms, 1.0)


def normalize_rows(x: Array) -> Array:
    """Scale every non-zero row to unit Euclidean norm (zero rows stay zero)."""
    return _normalize_rows(np.asarray(x, dtype=float))


def _normalize_rows(x: Array, out: Array | None = None) -> Array:
    """``normalize_rows`` on a float array, for worker threads, written
    into ``out`` if it is given: each row is scaled by a factor computed
    from that row alone."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return np.divide(x, safe, out=out)
