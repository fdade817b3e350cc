"""End-to-end private message passing: calibrate the noise once, then
iterate layer forward + Gaussian perturbation + row projection for K hops,
releasing only the final embedding.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .accountant import (
    AccountantMode,
    ModuleBudgets,
    NoisePlan,
    PrivacySpec,
    calibrate_sigma,
    convergent_factor,
    sensitivity_for_level,
)
from .graphs import LabeledDataset, normalized_adjacency
from .layers import LayerParams, layer_forward, project_rows
from .prng import stream

_ROW_NORM_TOL = 1e-9
_HOP_STREAM = 0x40C4
#: Feature-matrix entries (n*d; 2**19 float64 fill 4 MiB) from which each
#: hop's noise is drawn on a worker thread while the hop's layer runs.  In
#: K=8 sweeps on 2 cores the overlap won in every run from 544k entries up;
#: at 512k and below it won in some runs and lost in others, as the two
#: threads slowed each other down (the sweep is in CHANGES.md).
_OVERLAP_MIN_CELLS = 1 << 19


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs: layer coefficients, privacy target, seed.

    ``spec.gamma`` must equal the layer's contraction constant; the
    accountant's guarantee is stated in terms of that constant.
    ``max_degree`` optionally caps the maximum node degree admitted under
    node-level privacy (graphs exceeding it are rejected).
    """

    cgl: LayerParams
    spec: PrivacySpec
    k_hops: int
    seed: int
    mode: AccountantMode = "convergent"
    budgets: ModuleBudgets = field(default_factory=ModuleBudgets)
    max_degree: int | None = None

    def __post_init__(self) -> None:
        if self.k_hops < 0:
            raise ValueError("k_hops must be non-negative")
        if self.spec.level != "none" and self.k_hops != self.spec.k_hops:
            raise ValueError(
                f"k_hops ({self.k_hops}) must match spec.k_hops ({self.spec.k_hops})"
            )
        if self.spec.level != "none" and abs(self.spec.gamma - self.cgl.c_l) > 1e-12:
            raise ValueError(
                f"spec.gamma ({self.spec.gamma}) must equal the layer c_l "
                f"({self.cgl.c_l}); the privacy bound is stated for that constant"
            )


@dataclass(frozen=True)
class RunArtifacts:
    """Released output: the final embedding and the calibration record.

    Intermediate iterates are discarded; only the last hop's projected
    matrix leaves the pipeline.
    """

    x_k_final: np.ndarray
    plan: NoisePlan
    per_hop_noise_std: float


def _draw_noise(out: np.ndarray, std: float, rng: np.random.Generator) -> None:
    """Fill ``out`` in place with IID N(0, std^2) entries: the numbers
    ``rng.normal(0.0, std, out.shape)`` returns, without a new array."""
    if std < 0:
        raise ValueError("std must be non-negative")
    rng.standard_normal(out=out)
    np.multiply(out, std, out=out)


def sample_gaussian_matrix(
    rows: int, cols: int, std: float, rng: np.random.Generator
) -> np.ndarray:
    """IID zero-mean Gaussian matrix; std = 0 yields exact zeros."""
    if std == 0.0:
        return np.zeros((rows, cols))
    out = np.empty((rows, cols))
    _draw_noise(out, std, rng)
    return out


def run_pipeline(dataset: LabeledDataset, cfg: PipelineConfig) -> RunArtifacts:
    """Run the perturbed contractive pipeline and release X^(K).

    Requires row-normalized input features.  The per-hop noise standard
    deviation is exactly sensitivity * plan.sigma; each hop draws from its
    own counter-derived stream so runs are reproducible regardless of
    evaluation order.  All hops' noise fills one reused buffer.  When the
    feature matrix has at least ``_OVERLAP_MIN_CELLS`` entries, hop k's
    noise is drawn on one worker thread while this thread runs hop k's
    layer; below that it is drawn on this thread.  Each hop draws the same
    numbers either way, so the release does not depend on where they are
    drawn.
    """
    x0 = np.asarray(dataset.features, dtype=float)
    row_norms = np.linalg.norm(x0, axis=1)
    if row_norms.size and row_norms.max() > 1.0 + _ROW_NORM_TOL:
        raise ValueError(
            f"input features must have row norm <= 1 (max {row_norms.max():.6g}); "
            "project them first"
        )

    level = cfg.spec.level
    delta_mp = sensitivity_for_level(level, dataset.graph, cfg.cgl, cfg.max_degree)
    if level == "none":
        hops = max(cfg.k_hops, 1)
        plan = NoisePlan(
            sigma=0.0,
            alpha_star=float(hops + 1),
            delta_mp=0.0,
            factor=convergent_factor(hops, cfg.cgl.c_l),
            eps_achieved=0.0,
        )
    else:
        plan = calibrate_sigma(cfg.spec, delta_mp, cfg.budgets, cfg.mode)

    noise_std = plan.noise_std
    adj = normalized_adjacency(dataset.graph)
    x = x0.copy()
    noisy = noise_std > 0.0 and cfg.k_hops > 0
    noise = np.empty_like(x) if noisy else None
    overlap = noisy and x.size >= _OVERLAP_MIN_CELLS
    with ThreadPoolExecutor(max_workers=1) if overlap else nullcontext() as pool:

        def start_draw(hop: int) -> Future | None:
            # the worker runs only _draw_noise's numpy fills, which release
            # the GIL, and no public function, so wrappers around public
            # functions (as a tracer installs) only run on this thread
            rng = stream(cfg.seed, _HOP_STREAM, hop)
            if pool is None:
                _draw_noise(noise, noise_std, rng)
                return None
            return pool.submit(_draw_noise, noise, noise_std, rng)

        pending = start_draw(0) if noisy else None
        for hop in range(cfg.k_hops):
            x = layer_forward(adj, x, x0, cfg.cgl)
            if noisy:
                if pending is not None:
                    pending.result()
                x += noise
                if hop + 1 < cfg.k_hops:
                    pending = start_draw(hop + 1)
            x = project_rows(x)
    return RunArtifacts(x_k_final=x, plan=plan, per_hop_noise_std=noise_std)


def save_artifacts(artifacts: RunArtifacts, embedding_path, plan_path) -> None:
    """Persist the embedding as CSV and the noise plan as a JSON sidecar."""
    emb = np.asarray(artifacts.x_k_final)
    with Path(embedding_path).open("w") as fh:
        for row in emb:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    sidecar = dict(artifacts.plan.to_dict(), per_hop_noise_std=artifacts.per_hop_noise_std)
    with Path(plan_path).open("w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
