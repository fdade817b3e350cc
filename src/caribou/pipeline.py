"""End-to-end private message passing: calibrate the noise once, then
iterate layer forward + Gaussian perturbation + row projection for K hops,
releasing only the final embedding.

Each hop multiplies in float32 and does everything else in float64.  A run
holds two full-size buffers: the float32 iterate and the hop's float64
output.  At the start of each hop the iterate is rounded from the last
output (from X0 at hop 0), block by block.  The calling thread then draws
the hop's Gaussian noise straight into the output, block by block in row
order, and hands each block on as soon as its noise is in: the block's
task forms its layer rows from the float32 product Â @ X, adds them into
the output and projects them in place.  The blocks have
``_pool.BLOCK_ROWS`` rows from ``_pool.MIN_CELLS`` output entries up,
whatever the CPU count; a smaller output is one block.  The tasks run on
the thread pool of ``_pool``, whose last worker is the calling thread
once the draw is done, or on the calling thread alone where ``_pool``
lends no workers.  The last output is the release, in float64.

A run can make T releases of one graph, one per seed, in the same pass;
both buffers are then T times as large.  The iterate holds the T
iterates side by side, (n, T·d), so each hop reads the indices and values
of Â once for all T·d columns; the mean term is per column.  The
releases share the dataset's features, and X0 is then broadcast across
the T column groups, or each has its own, given as a (T, n, d) array.
Only the row-norm check, the rounding of X0 at hop 0, the β·X0 residual
and the K = 0 release read X0, and each reads release t's columns from
release t's features.  The output is (T, n, d): release t draws its rows
of each block from its own stream straight into slice t, and each row of
each release is projected on its own.  With one seed these are the
buffers, blocks and draws of a single release.

The product's rounding is charged to the sensitivity: ``delta_mp`` is the
layer's Delta plus the slack of ``accountant._rounding_slack``, whose
argument is in the ``accountant`` module docstring.  No float32 sum has
more than ``graphs._SUM_TERMS`` terms: a longer row of Â is summed in
chunks of at most that many, and the chunk sums are added in float64.

Every product of a hop stays row-local: the sparse Â @ X computes each
output row from that row of Â alone, so blocks of any height give the
same bits.  Only the column mean reads every row; it is taken once per hop
on the calling thread.  Consecutive draws from one stream give the
numbers of one whole draw, and noise + layer is the same float as
layer + noise, so the release is the bits of drawing, adding and
projecting the whole matrix at once, whether it is made alone or in a
batch of seeds and features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array

from . import _pool
from .accountant import (
    AccountantMode,
    NoisePlan,
    PrivacySpec,
    _check_mode,
    _rounding_slack,
    calibrate_sigma,
    convergent_factor,
    sensitivity_for_level,
)
from .graphs import LabeledDataset, _float32_aggregation, write_float_csv
from .layers import LayerParams, _check_count, _layer_rows, _mean_term, _project_rows_inplace
from .prng import stream

_ROW_NORM_TOL = 1e-9
_HOP_STREAM = 0x40C4


def _max_degree(cap):
    """``cap`` if it is None or an integer of at least 1; a bool is not."""
    if cap is not None:
        _check_count("max_degree", cap, 1)
    return cap


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs: layer coefficients, privacy target, seed.

    ``spec.gamma`` must equal the layer's contraction constant; the
    accountant's guarantee is stated in terms of that constant.
    ``max_degree`` optionally caps the maximum node degree admitted under
    node-level privacy (graphs exceeding it are rejected); it is an integer
    of at least 1, or None.
    """

    cgl: LayerParams
    spec: PrivacySpec
    k_hops: int
    seed: int
    mode: AccountantMode = "convergent"
    max_degree: int | None = None

    def __post_init__(self) -> None:
        _check_count("k_hops", self.k_hops, 0)
        _max_degree(self.max_degree)
        _check_mode(self.mode)
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

    ``x_k_final`` is (n, d), or (T, n, d) for a batch of T seeds.
    Intermediate iterates are discarded; only the last hop's projected
    matrix leaves the pipeline.
    """

    x_k_final: np.ndarray
    plan: NoisePlan

    @property
    def per_hop_noise_std(self) -> float:
        """The Gaussian standard deviation of every hop, ``plan.noise_std``."""
        return self.plan.noise_std


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


def _row_blocks(agg: csr_array, first: np.ndarray | None,
                block_rows: int) -> list[tuple[int, int, csr_array, np.ndarray | None]]:
    """Split the rows of Â into ``(start, stop, rows, starts)`` blocks of
    ``block_rows`` rows, from ``agg`` and ``first`` as
    ``graphs._float32_aggregation`` gives them.  ``rows`` holds the chunks
    of the block's rows; ``starts`` gives each row's first chunk within
    ``rows``, or is None when the block cuts no row.  Each block is a CSR
    view over ``agg``'s own ``data`` and ``indices``; only its ``indptr``
    is rebased to start at 0.  One block is ``agg`` itself."""
    n = agg.shape[1]
    blocks = []
    for a in range(0, n, block_rows):
        b = min(a + block_rows, n)
        ca, cb = (a, b) if first is None else (int(first[a]), int(first[b]))
        starts = None if cb - ca == b - a else first[a:b] - ca
        if cb - ca == agg.shape[0]:
            blocks.append((a, b, agg, starts))
            continue
        lo, hi = agg.indptr[ca], agg.indptr[cb]
        rows = csr_array((cb - ca, n), dtype=agg.dtype)
        # set after construction: the constructor copies an array that is
        # a view of less than half of its base
        rows.indptr = agg.indptr[ca : cb + 1] - lo
        rows.indices = agg.indices[lo:hi]
        rows.data = agg.data[lo:hi]
        blocks.append((a, b, rows, starts))
    return blocks


def _hop_rows(adj_rows, starts, x32: np.ndarray, x0_rows: np.ndarray, mean_term,
              params: LayerParams, out_rows: np.ndarray, noisy: bool) -> None:
    """Form one block's layer rows from the float32 iterate, put them into
    ``out_rows``, the block's (T, rows, d) view of the output, and project
    them in place.  Release t's rows are columns t*d up to (t+1)*d of the
    layer rows.  With ``noisy``, ``out_rows`` holds the block's noise and
    the rows are added to it."""
    t, m, d = out_rows.shape
    rows = _layer_rows(adj_rows, x32, x0_rows, mean_term, params, starts)
    rows = rows.reshape(m, t, d).transpose(1, 0, 2)
    if noisy:
        out_rows += rows
    else:
        out_rows[...] = rows
    # freed before the projection allocates its temporaries of the same
    # size, which can then reuse this memory: on a 2-CPU x86-64 host a
    # 10,000 x 8 release took 30% longer while the rows were still held
    del rows
    _project_rows_inplace(out_rows)


def _hop_tasks(blocks, x32: np.ndarray, out: np.ndarray, mean_term, params: LayerParams,
               std: float, rngs: list[np.random.Generator] | None):
    """One hop's block tasks, in row order.  Before it yields a block's
    task, this draws release t's noise for the block from ``rngs[t]`` into
    its rows of ``out[t]``, on the thread that iterates; without ``rngs``
    nothing is drawn.  ``blocks`` holds ``(start, stop, adj_rows, starts,
    x0_rows)``."""
    for a, b, rows, starts, x0_rows in blocks:
        out_rows = out[:, a:b]
        if rngs is not None:
            for release, rng in zip(out_rows, rngs):
                _draw_noise(release, std, rng)
        yield partial(_hop_rows, rows, starts, x32, x0_rows, mean_term, params, out_rows,
                      rngs is not None)


def _cast_tasks(blocks, src: np.ndarray, x32: np.ndarray):
    """Tasks that round ``src`` into the float32 iterate, one per block;
    both are (n, T, d), and ``src`` may broadcast."""
    for a, b, *_ in blocks:
        yield partial(np.copyto, x32[a:b], src[a:b])


def run_pipeline(dataset: LabeledDataset, cfg: PipelineConfig, seeds=None,
                 features=None) -> RunArtifacts:
    """Run the perturbed contractive pipeline and release X^(K).

    With ``seeds``, make one release per seed, in place of ``cfg.seed``, in
    one pass: ``x_k_final`` is then (T, n, d) for T seeds, and slice t has
    the bits of the release with ``seeds[t]`` as its seed.  ``features``,
    given beside ``seeds``, holds each release's own public features in
    place of the dataset's, a (T, n, d) array: slice t then has the bits
    of the release of ``replace(dataset, features=features[t])`` with
    ``seeds[t]``.  The call without ``seeds`` makes the one release of
    ``cfg.seed``, (n, d).

    Requires row-normalized input features.  The per-hop noise standard
    deviation is exactly plan.delta_mp * plan.sigma, where delta_mp is the
    layer sensitivity plus ``plan.rounding_slack``, the charge for the
    float32 product; each hop of each release draws from its own
    counter-derived stream straight into its output buffer, so runs are
    reproducible regardless of evaluation order.  Besides the features, a
    run holds the float32 iterate and the float64 output, 1.5 T times the
    features' size, plus the blocks in flight; it returns holding only the
    output.  A run on row blocks then gives the C heap's free pages back
    to the OS (``_pool`` says why).

    Each hop runs in the one phase, on the blocks and threads, that the
    module docstring describes; the rounding of the iterate to float32
    runs in the same blocks, on the same threads.  The streams and every
    other public function are called on this thread.  A row's arithmetic
    reads only that row's inputs, the column mean (taken once per hop on
    this thread) and the hop's noise stream of its release, so the release
    is the same bits for any block size, thread count, batch of seeds and
    batch of features.
    """
    batched = seeds is not None
    seeds = [cfg.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one release")
    x0 = np.asarray(dataset.features if features is None else features, dtype=float)
    if features is not None and (not batched
                                 or x0.shape != (len(seeds), *dataset.features.shape)):
        raise ValueError(
            f"features must hold one {dataset.features.shape} matrix per seed of "
            f"seeds, got shape {x0.shape}"
        )
    # a NaN or infinite entry makes its row's norm NaN or infinite; NaN
    # fails every comparison, so it is tested for before the bound.  The
    # squared row norms are summed in place of an n x d temporary.
    worst = float(np.sqrt(np.einsum("...j,...j->...", x0, x0).max())) if x0.size else 0.0
    if not np.isfinite(worst):
        raise ValueError("input features must be finite (found a NaN or infinite row norm)")
    if worst > 1.0 + _ROW_NORM_TOL:
        raise ValueError(
            f"input features must have row norm <= 1 (max {worst:.6g}); project them first"
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
        slack = _rounding_slack(level, dataset.graph.num_nodes, cfg.cgl)
        plan = replace(calibrate_sigma(cfg.spec, delta_mp + slack, cfg.mode),
                       rounding_slack=slack)

    noise_std = plan.noise_std
    # the releases' features, (T, n, d), or (1, n, d) when they share them
    x0 = x0 if features is not None else x0[None]
    if cfg.k_hops == 0:
        x_k = np.broadcast_to(x0, (len(seeds), *x0.shape[1:])).copy()
        return RunArtifacts(x_k_final=x_k if batched else x_k[0], plan=plan)
    n, d = x0.shape[1:]
    if n == 0:
        raise ValueError("expected a non-empty 2-D feature matrix")
    # built before the iterate buffers: the build's own peak is several
    # times the size of Â
    agg, first = _float32_aggregation(dataset.graph)
    # the T releases side by side: release t is columns t*d up to (t+1)*d
    # of the iterate and slice t of the output; X0 likewise, (n, T or 1, d)
    x32 = np.empty((n, len(seeds), d), dtype=np.float32)
    x0 = x0.transpose(1, 0, 2)
    columns = x32.reshape(n, len(seeds) * d)
    out = np.empty((len(seeds), n, d))
    noisy = noise_std > 0.0
    large = out.size >= _pool.MIN_CELLS
    with _pool.thread_pool(out.size) as pool:
        blocks = [(a, b, rows, starts, x0[a:b]) for a, b, rows, starts
                  in _row_blocks(agg, first, _pool.BLOCK_ROWS if large else n)]
        for hop in range(cfg.k_hops):
            _pool.run_all(pool, _cast_tasks(blocks, out.transpose(1, 0, 2) if hop else x0,
                                            x32))
            rngs = [stream(seed, _HOP_STREAM, hop) for seed in seeds] if noisy else None
            mean_term = _mean_term(columns, cfg.cgl)
            _pool.run_all(pool, _hop_tasks(blocks, columns, out, mean_term, cfg.cgl,
                                           noise_std, rngs))
    # dropped first, so that their pages are among those the trim gives back
    del x32, columns, blocks
    if large:
        _pool._trim_heap()
    return RunArtifacts(x_k_final=out if batched else out[0], plan=plan)


def save_artifacts(artifacts: RunArtifacts, embedding_path, plan_path) -> None:
    """Persist the embedding as CSV and the noise plan as a JSON sidecar."""
    write_float_csv(embedding_path, artifacts.x_k_final)
    with Path(plan_path).open("w") as fh:
        json.dump(artifacts.plan.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
