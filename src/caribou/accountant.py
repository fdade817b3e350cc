"""Closed-form privacy accounting for perturbed graph message passing.

Covers the convergent and linear Renyi-DP factors for a K-hop pipeline,
the edge- and node-level sensitivity formulas of the contractive layer,
the conversion from Renyi DP to (epsilon, delta)-DP, and noise calibration
in closed form over a finite Renyi-order grid.  The brute-force
sensitivity oracles that check the formulas on small graphs, and the
per-order Renyi costs that calibration composes, live with the tests, in
``tests/verify.py``.

Conventions: ``sigma`` in a ``NoisePlan`` is the noise multiplier, i.e. the
per-layer Gaussian standard deviation *before* scaling by the sensitivity.
The pipeline injects noise with standard deviation ``delta_mp * sigma``, so
the per-step Gaussian mechanism has mu = 1/sigma regardless of delta_mp,
and calibration solves for the K-hop release alone with unit sensitivity.
The argument needs only IID N(0, (delta_mp sigma)^2) noise entries, which
disjoint counter ranges of one Philox key give (``prng.stream``'s part).
A trained module states its own cost once, as a Renyi coefficient c with
(alpha, c * alpha)-RDP at every order (``MlpHead.cm_rdp_coeff``,
``LinearEncoder.dae_rdp_coeff``); calibration does not compose it.

The release's ``delta_mp`` is Delta + 2e: the layer sensitivity Delta of
``sensitivity_for_level`` plus a slack 2e for the float32 product of each
hop (``NoisePlan.rounding_slack``).  The hop computes psi(X) + E, where psi
is the exact layer map of ``layers.layer_forward``.  Three roundings make
E: X to float32, the values of A-hat to float32, and the float32 sums of at
most L terms (``graphs._SUM_TERMS``; a longer row of A-hat is summed in
chunks of at most L whose sums are added in float64).  With u = 2^-24 and
gamma_k = k u / (1 - k u), each entry of the product is off by at most
gamma_{L+2} (A-hat |X|)_ic, and for X with rows in the unit ball
||A-hat |X|||_F <= ||A-hat||_2 ||X||_F <= sqrt(n).  The mean term reads the
float32 iterate too and is off by at most alpha2 u sqrt(n).  So
||E||_F <= e = c_l (alpha1 gamma_{L+2} + alpha2 u) sqrt(n'), which reads
only public values: n' = n at edge level, and n' = n + 1 at node level, so
that e covers both graphs of a pair.  Then
||psi~_G(X) - psi~_G'(X')|| <= c_l ||X - X'|| + Delta + 2e, and the shifted
iteration of the convergent bound goes through with Delta + 2e in place of
Delta (Feldman et al. 2018, contraction up to an additive error).  The
noise draw, the add, the projection and X^(K) stay float64 (Mironov 2012),
and float64 rounding is left out of the analysis, as is float32 underflow,
which adds at most 2^-150 per rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Literal, Sequence, get_args

from . import graphs
from .graphs import Graph, degree_stats
from .layers import LayerParams, _check_count

PrivacyLevel = Literal["edge", "node", "none"]
AccountantMode = Literal["convergent", "linear"]


def _check_mode(mode) -> None:
    """Raise unless ``mode`` is an ``AccountantMode``."""
    if mode not in get_args(AccountantMode):
        raise ValueError(f"unknown accountant mode {mode!r}")


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
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.level not in ("edge", "node", "none"):
            raise ValueError(f"unknown privacy level {self.level!r}")
        _check_count("k_hops", self.k_hops, 0 if self.level == "none" else 1)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")


@dataclass(frozen=True)
class NoisePlan:
    """Calibration result: noise multiplier and the order that realized it."""

    sigma: float
    alpha_star: float
    delta_mp: float
    factor: float
    eps_achieved: float
    #: the part of ``delta_mp`` that pays for the float32 product of the
    #: hops; ``delta_mp`` less this is the layer sensitivity
    rounding_slack: float = 0.0

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
            "rounding_slack": self.rounding_slack,
            "factor": self.factor,
            "eps_achieved": self.eps_achieved,
            "noise_std": self.noise_std,
        }


def convergent_factor(k: int, gamma: float) -> float:
    """min{K, (1 - g^K)/(1 + g^K) * (1 + g)/(1 - g)} for contraction g.

    Equals K at K = 1, is non-decreasing in K, and converges to
    (1 + g)/(1 - g) instead of growing linearly.
    """
    _check_count("k", k, 1)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if gamma == 0.0:
        return 1.0
    gk = gamma**k
    amplified = (1.0 - gk) / (1.0 + gk) * (1.0 + gamma) / (1.0 - gamma)
    return min(float(k), amplified)


def rdp_to_dp(eps_rdp: float, alpha: float, delta: float) -> float:
    """Convert an (alpha, eps)-RDP guarantee to epsilon at the given delta."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return eps_rdp + math.log(1.0 / delta) / (alpha - 1.0)


def gaussian_tradeoff(type_one: float, mu: float) -> float:
    """Gaussian trade-off curve: Phi(Phi^-1(1 - a) - mu).

    Gives the least achievable type-II error at type-I level ``type_one``
    when distinguishing N(0,1) from N(mu,1).  mu = 0 is the identity
    trade-off 1 - a.  Phi^-1 is infinite at 0 and 1, so a = 0 with
    mu = inf is NaN.
    """
    if not 0.0 <= type_one <= 1.0:
        raise ValueError("type_one must be in [0, 1]")
    if not mu >= 0:  # NaN too
        raise ValueError(f"mu must be non-negative, got {mu!r}")
    p = 1.0 - type_one
    if 0.0 < p < 1.0:
        z = NormalDist().inv_cdf(p)
    else:
        z = math.inf if p else -math.inf
    return 0.5 * math.erfc((mu - z) / math.sqrt(2.0))


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


def _composed_epsilon(sigma: float, alpha: float, factor: float, spec: PrivacySpec) -> float:
    # unit sensitivity: injected noise scales with delta_mp, so the
    # per-step mechanism has mu = 1/sigma and the hops cost alpha F/(2 sigma^2)
    rdp = 0.5 * alpha * (1.0 / sigma) ** 2 * factor
    return rdp_to_dp(rdp, alpha, spec.delta)


def calibrate_sigma(
    spec: PrivacySpec,
    delta_mp: float,
    mode: AccountantMode = "convergent",
    alphas: Sequence[float] | None = None,
) -> NoisePlan:
    """Smallest noise multiplier meeting the target budget with the K-hop
    release, the one mechanism composed here.

    At each order alpha the guarantee is
    eps = alpha * F / (2 sigma^2) + log(1/delta)/(alpha - 1), with F the hop
    factor, so wherever room = eps - log(1/delta)/(alpha - 1) is positive
    the boundary is sigma = sqrt(alpha * F / (2 room)).  When rounding
    leaves the evaluated epsilon above the target, room is lowered by that
    overshoot (at least one ulp of epsilon) and sigma recomputed, so
    ``eps_achieved <= epsilon`` holds exactly; this takes at most a few
    passes, and an order whose room vanishes is skipped.  The smallest
    sigma over the grid wins.  Raises CalibrationError when even infinite
    noise cannot meet the target (the floor min_alpha log(1/delta)/(alpha-1)
    is reported).
    """
    if not 0 <= delta_mp < math.inf:
        raise ValueError(f"delta_mp must be finite and non-negative, got {delta_mp!r}")
    _check_mode(mode)
    grid = tuple(alphas) if alphas is not None else DEFAULT_ALPHA_GRID
    if not grid or any(a <= 1 for a in grid):
        raise ValueError("alpha grid must be non-empty with orders > 1")

    factor = (
        convergent_factor(spec.k_hops, spec.gamma)
        if mode == "convergent"
        else float(spec.k_hops)
    )
    floors = {a: math.log(1.0 / spec.delta) / (a - 1.0) for a in grid}
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
    if spec.k_hops < 1:
        # the linear factor K is 0 here, so no sigma > 0 can be solved for
        raise ValueError("k must be >= 1")

    best: tuple[float, float] | None = None
    for alpha in grid:
        room = spec.epsilon - floors[alpha]
        while room > 0:
            # 2 room overflows from epsilon ~ 9e307 on; room / 2 there gives a
            # larger sigma, still within the target, whose 1/sigma^2 is finite
            scale = 2.0 * room if math.isfinite(2.0 * room) else room / 2
            candidate = math.sqrt(alpha * factor / scale)
            over = _composed_epsilon(candidate, alpha, factor, spec) - spec.epsilon
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
    achieved = min(_composed_epsilon(sigma, a, factor, spec) for a in grid)
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


#: Unit roundoff of float32: rounding to float32 errs by at most this
#: fraction of the value.
_U32 = 2.0**-24


def _rounding_slack(level: PrivacyLevel, num_nodes: int, params: LayerParams) -> float:
    """2e, the slack for the float32 product of the hops (module docstring);
    0 at level "none"."""
    if level == "none":
        return 0.0
    terms = graphs._SUM_TERMS + 2
    gamma = terms * _U32 / (1.0 - terms * _U32)
    n = num_nodes + 1 if level == "node" else num_nodes
    return 2.0 * params.c_l * (params.alpha1 * gamma + params.alpha2 * _U32) * math.sqrt(n)


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
            spec = PrivacySpec(epsilon=epsilon, delta=delta, level="edge", k_hops=k, gamma=gamma)
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
