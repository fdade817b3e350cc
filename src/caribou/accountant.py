"""Closed-form privacy accounting for perturbed graph message passing.

Covers the convergent and linear Renyi-DP factors for a K-hop pipeline,
the edge- and node-level sensitivity formulas of the contractive layer,
conversions between Gaussian DP, Renyi DP, and (epsilon, delta)-DP, noise
calibration in closed form over a finite Renyi-order grid, and brute-force
sensitivity oracles for validation on small graphs.

Conventions: ``sigma`` in a ``NoisePlan`` is the noise multiplier, i.e. the
per-layer Gaussian standard deviation *before* scaling by the sensitivity.
The pipeline injects noise with standard deviation ``delta_mp * sigma``, so
the per-step Gaussian mechanism has mu = 1/sigma regardless of delta_mp,
and calibration solves the composed budget with unit sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .graphs import (
    Graph,
    degree_stats,
    enumerate_edge_neighbors,
    enumerate_node_neighbors,
    normalized_adjacency,
)
from .layers import LayerParams, layer_forward
from .prng import stream

PrivacyLevel = Literal["edge", "node", "none"]
AccountantMode = Literal["convergent", "linear"]

#: Renyi orders searched during calibration.
DEFAULT_ALPHA_GRID: tuple[float, ...] = (1.25, 1.5, 2, 3, 4, 5, 6, 8, 16, 32, 64)

#: Hop counts of the reference noise-scale table.
DEFAULT_K_VALUES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


class CalibrationError(RuntimeError):
    """Target budget is unreachable at every Renyi order."""


@dataclass(frozen=True)
class PrivacySpec:
    """Target (epsilon, delta)-DP guarantee for a K-hop release.

    ``gamma`` is the per-layer Lipschitz constant fed to the convergent
    bound; ``level`` selects the adjacency notion (``none`` disables noise).
    ``k_hops`` may be 0 only when ``level == "none"``: a features-only
    release with no message passing and no noise.
    """

    epsilon: float
    delta: float
    level: PrivacyLevel = "edge"
    k_hops: int = 1
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.level not in ("edge", "node", "none"):
            raise ValueError(f"unknown privacy level {self.level!r}")
        min_hops = 0 if self.level == "none" else 1
        if self.k_hops < min_hops:
            raise ValueError(f"k_hops must be >= {min_hops}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")


@dataclass(frozen=True)
class ModuleBudgets:
    """Renyi-DP costs already spent by the encoder and classifier modules,
    evaluated at the order used for composition."""

    eps_dae_at_alpha: float = 0.0
    eps_cm_at_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.eps_dae_at_alpha < 0 or self.eps_cm_at_alpha < 0:
            raise ValueError("module budgets must be non-negative")

    @property
    def total(self) -> float:
        return self.eps_dae_at_alpha + self.eps_cm_at_alpha


@dataclass(frozen=True)
class NoisePlan:
    """Calibration result: noise multiplier and the order that realized it."""

    sigma: float
    alpha_star: float
    delta_mp: float
    factor: float
    eps_achieved: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.alpha_star <= 1:
            raise ValueError("alpha_star must exceed 1")

    @property
    def noise_std(self) -> float:
        """Per-layer Gaussian standard deviation actually injected."""
        return self.delta_mp * self.sigma

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "alpha_star": self.alpha_star,
            "delta_mp": self.delta_mp,
            "factor": self.factor,
            "eps_achieved": self.eps_achieved,
            "noise_std": self.noise_std,
        }


def convergent_factor(k: int, gamma: float) -> float:
    """min{K, (1 - g^K)/(1 + g^K) * (1 + g)/(1 - g)} for contraction g.

    Equals K at K = 1, is non-decreasing in K, and converges to
    (1 + g)/(1 - g) instead of growing linearly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if gamma == 0.0:
        return 1.0
    gk = gamma**k
    amplified = (1.0 - gk) / (1.0 + gk) * (1.0 + gamma) / (1.0 - gamma)
    return min(float(k), amplified)


def rdp_epsilon_convergent(
    k: int, gamma: float, delta_mp: float, sigma: float, alpha: float
) -> float:
    """Renyi cost of a K-hop contractive pipeline at order ``alpha``:
    (alpha / 2) * (delta_mp / sigma)^2 * convergent_factor(k, gamma)."""
    if delta_mp == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return 0.5 * alpha * (delta_mp / sigma) ** 2 * convergent_factor(k, gamma)


def rdp_epsilon_linear(k: int, delta_mp: float, sigma: float, alpha: float) -> float:
    """Plain K-fold composition baseline: K * alpha * delta_mp^2 / (2 sigma^2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if delta_mp == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return 0.5 * alpha * (delta_mp / sigma) ** 2 * k


def rdp_to_dp(eps_rdp: float, alpha: float, delta: float) -> float:
    """Convert an (alpha, eps)-RDP guarantee to epsilon at the given delta."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return eps_rdp + math.log(1.0 / delta) / (alpha - 1.0)


def gdp_to_rdp(mu: float, alpha: float) -> float:
    """A mu-GDP mechanism is (alpha, alpha * mu^2 / 2)-RDP."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return 0.5 * alpha * mu * mu


def gaussian_tradeoff(type_one: float, mu: float) -> float:
    """Gaussian trade-off curve: Phi(Phi^-1(1 - a) - mu).

    Gives the least achievable type-II error at type-I level ``type_one``
    when distinguishing N(0,1) from N(mu,1).  mu = 0 is the identity
    trade-off 1 - a.
    """
    if not 0.0 <= type_one <= 1.0:
        raise ValueError("type_one must be in [0, 1]")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    with np.errstate(invalid="ignore"):
        return float(ndtr(ndtri(1.0 - type_one) - mu))


def _degree_piecewise(d_min: int) -> float:
    # piecewise constant below d_min = 4
    if d_min > 3:
        return d_min / math.sqrt(d_min + 1.0) - d_min / math.sqrt(d_min + 2.0)
    return 3.0 / math.sqrt(4.0) - 3.0 / math.sqrt(5.0)


def edge_sensitivity(d_min: int, c_l: float, alpha1: float) -> float:
    """Worst-case layer-output change over graphs differing in one edge.

    Valid for minimum degree >= 1; decreases as the minimum degree grows
    and scales with c_l * alpha1 (the mean term does not see edge changes).
    """
    if d_min < 1:
        raise ValueError("edge sensitivity requires minimum degree >= 1")
    c = _degree_piecewise(d_min)
    total = (
        1.0 / ((d_min + 1.0) * (d_min + 2.0))
        + c / math.sqrt(d_min + 1.0)
        + 1.0 / (math.sqrt(d_min + 2.0) * math.sqrt(d_min + 1.0))
    )
    return math.sqrt(2.0) * c_l * alpha1 * total


def node_sensitivity(
    d_min: int,
    d_max: int,
    num_nodes: int,
    c_l: float,
    alpha1: float,
    alpha2: float,
) -> float:
    """Worst-case layer-output change over graphs differing in one node
    and its incident edges.  Always at least 1 (the new node's own row)."""
    if d_min < 1:
        raise ValueError("node sensitivity requires minimum degree >= 1")
    if d_max < d_min:
        raise ValueError("d_max must be >= d_min")
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    c = _degree_piecewise(d_min)
    mean_term = alpha2 * c_l * 2.0 * num_nodes / (num_nodes + 1.0)
    adj_term = alpha1 * c_l * (
        math.sqrt(d_max) / ((d_min + 1.0) * (d_min + 2.0))
        + c * math.sqrt(d_max) / math.sqrt(d_min + 1.0)
        + 1.0 / math.sqrt(d_min + 2.0)
    )
    return 1.0 + mean_term + adj_term


def _composed_epsilon(
    sigma: float,
    alpha: float,
    spec: PrivacySpec,
    budgets: ModuleBudgets,
    mode: AccountantMode,
) -> float:
    # unit sensitivity: injected noise scales with delta_mp, so the
    # per-step mechanism has mu = 1/sigma
    if mode == "convergent":
        rdp = rdp_epsilon_convergent(spec.k_hops, spec.gamma, 1.0, sigma, alpha)
    else:
        rdp = rdp_epsilon_linear(spec.k_hops, 1.0, sigma, alpha)
    return rdp_to_dp(budgets.total + rdp, alpha, spec.delta)


def calibrate_sigma(
    spec: PrivacySpec,
    delta_mp: float,
    budgets: ModuleBudgets | None = None,
    mode: AccountantMode = "convergent",
    alphas: Sequence[float] | None = None,
) -> NoisePlan:
    """Smallest noise multiplier meeting the target budget.

    At each order alpha the composed guarantee is
    eps = B + alpha * F / (2 sigma^2) + log(1/delta)/(alpha - 1), with B the
    module budgets and F the hop factor, so wherever
    room = eps - B - log(1/delta)/(alpha - 1) is positive the boundary is
    sigma = sqrt(alpha * F / (2 room)).  When rounding leaves the evaluated
    epsilon above the target, room is lowered by that overshoot (at least
    one ulp of epsilon) and sigma recomputed, so ``eps_achieved <= epsilon``
    holds exactly; this takes at most a few passes, and an order whose room
    vanishes is skipped.  The smallest sigma over the grid wins.  Raises
    CalibrationError when even infinite noise cannot meet the target (the
    floor min_alpha [budgets + log(1/delta)/(alpha-1)] is reported).
    """
    if delta_mp < 0:
        raise ValueError("delta_mp must be non-negative")
    if mode not in ("convergent", "linear"):
        raise ValueError(f"unknown accountant mode {mode!r}")
    budgets = budgets or ModuleBudgets()
    grid = tuple(alphas) if alphas is not None else DEFAULT_ALPHA_GRID
    if not grid or any(a <= 1 for a in grid):
        raise ValueError("alpha grid must be non-empty with orders > 1")

    factor = (
        convergent_factor(spec.k_hops, spec.gamma)
        if mode == "convergent"
        else float(spec.k_hops)
    )
    floors = {a: rdp_to_dp(budgets.total, a, spec.delta) for a in grid}
    floor = min(floors.values())
    if floor > spec.epsilon:
        raise CalibrationError(
            f"epsilon={spec.epsilon} is below the composition floor "
            f"{floor:.6g} (best order {min(floors, key=floors.get)})"
        )

    if delta_mp == 0.0:
        alpha_star = min(floors, key=floors.get)
        return NoisePlan(
            sigma=0.0,
            alpha_star=float(alpha_star),
            delta_mp=0.0,
            factor=factor,
            eps_achieved=floor,
        )

    best: tuple[float, float] | None = None
    for alpha in grid:
        room = spec.epsilon - floors[alpha]
        while room > 0:
            candidate = math.sqrt(alpha * factor / (2.0 * room))
            over = _composed_epsilon(candidate, alpha, spec, budgets, mode) - spec.epsilon
            if over <= 0:
                if best is None or candidate < best[0]:
                    best = (candidate, alpha)
                break
            room -= over
    if best is None:
        raise CalibrationError(
            f"epsilon={spec.epsilon} leaves no room above the per-order floors "
            f"(best floor {floor:.6g})"
        )
    sigma, alpha_star = best
    achieved = min(_composed_epsilon(sigma, a, spec, budgets, mode) for a in grid)
    return NoisePlan(
        sigma=sigma,
        alpha_star=float(alpha_star),
        delta_mp=delta_mp,
        factor=factor,
        eps_achieved=achieved,
    )


def sensitivity_for_level(
    level: PrivacyLevel, g: Graph, params: LayerParams, d_max_cap: int | None = None
) -> float:
    """Sensitivity of one layer under the given adjacency notion."""
    if level == "none":
        return 0.0
    stats = degree_stats(g)
    if stats.d_min < 1:
        raise ValueError(
            "graph has an isolated node (self-loop-free minimum degree 0); "
            "the sensitivity bounds require minimum degree >= 1"
        )
    if level == "edge":
        return edge_sensitivity(stats.d_min, params.c_l, params.alpha1)
    d_max = stats.d_max
    if d_max_cap is not None:
        if d_max > d_max_cap:
            raise ValueError(
                f"graph maximum degree {d_max} exceeds the configured cap {d_max_cap}"
            )
        d_max = d_max_cap
    return node_sensitivity(
        stats.d_min, d_max, g.num_nodes, params.c_l, params.alpha1, params.alpha2
    )


def _layer_core(adj, x: np.ndarray, params: LayerParams) -> np.ndarray:
    # the layer with a zero residual: the residual term cancels between
    # adjacent graphs on shared nodes and is covered by the additive 1 in
    # the node-level bound
    return layer_forward(adj, x, x, replace(params, beta=0.0))


def brute_force_edge_sensitivity(
    g: Graph, params: LayerParams, trials: int, seed: int, feat_dim: int = 4
) -> float:
    """Empirical lower estimate of the edge-level sensitivity.

    Maximizes ||c_l * alpha1 * (A - A') X||_F over all single-edge toggles
    and ``trials`` random matrices with unit-norm rows.  Pairs where either
    graph has an isolated node are skipped (outside the formula's domain).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, 0xED6E)
    base = normalized_adjacency(g)
    n = g.num_nodes
    draws = rng.normal(size=(trials, n, feat_dim))
    draws /= np.linalg.norm(draws, axis=2, keepdims=True)
    worst = 0.0
    base_ok = degree_stats(g).d_min >= 1
    for other in enumerate_edge_neighbors(g):
        if not base_ok or degree_stats(other).d_min < 1:
            continue
        diff_op = params.c_l * params.alpha1 * (base - normalized_adjacency(other))
        dense = diff_op.toarray()
        for x in draws:
            worst = max(worst, float(np.linalg.norm(dense @ x)))
    return worst


def brute_force_node_sensitivity(
    g: Graph,
    params: LayerParams,
    trials: int,
    max_added_degree: int,
    seed: int,
    feat_dim: int = 4,
) -> float:
    """Empirical lower estimate of the node-level sensitivity.

    Compares the aggregation output on ``g`` against every neighbour from
    ``enumerate_node_neighbors`` (each single-node removal, then each
    capped single-node addition), padding the missing row with zeros;
    inputs are random with unit-norm rows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, 0x60DE)
    n = g.num_nodes
    adj_g = normalized_adjacency(g)
    draws = rng.normal(size=(trials, n + 1, feat_dim))
    draws /= np.linalg.norm(draws, axis=2, keepdims=True)
    outs_g = [_layer_core(adj_g, x_full[:n], params) for x_full in draws]
    worst = 0.0

    for i, other in enumerate(enumerate_node_neighbors(g, max_added_degree)):
        adj_o = normalized_adjacency(other)
        # the first n neighbours remove node i; the rest append node n
        keep = [j for j in range(n) if j != i]
        for x_full, out_g in zip(draws, outs_g):
            if i < n:
                out_o = _layer_core(adj_o, x_full[:n][keep], params)
                gap = (
                    np.linalg.norm(out_g[keep] - out_o) ** 2
                    + np.linalg.norm(out_g[i]) ** 2
                )
            else:
                out_o = _layer_core(adj_o, x_full, params)
                gap = (
                    np.linalg.norm(out_o[:n] - out_g) ** 2
                    + np.linalg.norm(out_o[n]) ** 2
                )
            worst = max(worst, math.sqrt(float(gap)))
    return worst


def noise_table(
    epsilon: float,
    delta: float,
    alpha: float,
    gamma: float,
    k_values: Sequence[int] | None = None,
) -> list[tuple[int, float, float]]:
    """(K, sigma_linear, sigma_convergent) rows at a pinned order and
    unit sensitivity."""
    ks = tuple(k_values) if k_values is not None else DEFAULT_K_VALUES
    rows = []
    for k in ks:
        plans = {}
        for mode in ("linear", "convergent"):
            spec = PrivacySpec(
                epsilon=epsilon, delta=delta, level="edge", k_hops=int(k), gamma=gamma
            )
            plans[mode] = calibrate_sigma(spec, 1.0, mode=mode, alphas=[alpha])
        rows.append((int(k), plans["linear"].sigma, plans["convergent"].sigma))
    return rows


def format_noise_table(
    rows: Sequence[tuple[int, float, float]], digits: Literal["4g", "full"] = "4g"
) -> str:
    """CSV rendering with 4 significant digits, or with ``digits="full"``
    the shortest repr of each float, which parses back exactly."""
    render = repr if digits == "full" else (lambda v: f"{v:.4g}")
    lines = ["K,sigma_linear,sigma_convergent"]
    for k, lin, conv in rows:
        lines.append(f"{k},{render(lin)},{render(conv)}")
    return "\n".join(lines) + "\n"
