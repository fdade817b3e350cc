"""Classification head over released embeddings.

The head is a small tanh MLP on the concatenation of the raw input
features and the row-normalized final embedding, trained full batch by
plain gradient descent or by a simplified DP-SGD (per-example clipping +
Gaussian noise, composed by plain Renyi summation).  Everything is
deterministic per seed.

Plain and private training share one backward pass, and DP-SGD forms no
per-example gradient: a dense layer's per-example weight gradient
x_i (x) g_i has norm |x_i| |g_i|, so clipping norms come in closed form
and the backward pass on clip-scaled output gradients sums the clipped
per-example gradients.

One pass trains T heads that share their input shape (m, d_in), class
count C and hidden width h; ``train_head`` is the case T = 1.  Inputs are
stacked (T, m, d_in), and each head's parameters (W1, b1, W2, b2) fill one
row of a (T, n) buffer, so one update is ``P -= lr * G``.  Every product
is a stacked ``np.matmul``, which runs head t's slice through the same
BLAS call as a lone head's matrix, and every sum over examples adds head
t's rows in the order a lone head's are added (``_sum_examples``).  DP
clip factors stay per example, and head t draws its noise from its own
stream, for W1, b1, W2, b2 in turn.  So head t of a pass has the bits of
the head ``train_head`` fits alone, whichever heads share its pass.  The
audit game uses this to train its trials' heads together (``_joins_batch``
is the rule).

One epoch runs in four phases over buffers allocated once per call:

1. row blocks: hidden = tanh(inputs @ W1 + b1);
2. calling thread: logits = hidden @ W2 + b2, on the whole matrix;
3. row blocks: softmax, the loss terms, the output gradient (scaled by
   1/m or by the clip factors) and the hidden gradient;
4. whole-matrix tasks: the W1 gradient in chunks of input columns, and,
   each whole on one thread, the two bias sums, hidden^T @ g and the loss
   sum.

DP noise is then drawn on the calling thread.  ``predict_proba`` and
``evaluate`` run phases 1-2 and the softmax on one head, each row block
gathering and forming its own inputs.

Which products are split follows from the arithmetic.  Each row of
inputs @ W1 and of g @ W2^T, and each row of the W1 gradient, is one dot
product, and BLAS keeps its order of addition when rows are split off as
long as the piece is large enough to take the same kernel as the whole:
row blocks are never shorter than ``_pool.BLOCK_ROWS`` and W1 chunks are
``_W1_CHUNK`` columns wide.  The narrow hidden @ W2 is not split: at some
row counts BLAS picks another kernel for it.  Sums over examples (biases,
hidden^T @ g, the loss) are not split either, since a split would change
their order of addition.  Checked bit for bit against the serial loop
with the default 16 hidden units; with 1, 2 or 4 hidden units some block
products on OpenBLAS 0.3.31 take another kernel, and the last bits can
differ from a one-block run.

The blocks depend only on the input's shape.  A lone head with at least
``_pool.MIN_CELLS`` input entries makes ``rows // BLOCK_ROWS`` blocks of
even height.  When the process may use two or more CPUs they run on
``_pool``'s workers and the calling thread, which takes the tasks no
worker has started; otherwise they run one after another.  So the CPU
count never changes the bits.  Fewer entries, and every pass of two or
more heads, make one block on the calling thread, with no thread started.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import _pool
from .layers import _check_count, _normalize_rows, project_rows
from .prng import stream

Array = np.ndarray

_INIT_STREAM = 0x1417
_DP_STREAM = 0xD9CD
#: Columns per chunk of the W1 gradient.  On OpenBLAS 0.3.31 a chunk only
#: a few columns wide takes another kernel and differs from the whole
#: product in the last bits (2-column chunks did); chunks of 32 columns at
#: multiples of 32 matched it for input widths 33-300 and 4-64 hidden
#: units, though not for every input width with 1 or 2 hidden units.
_W1_CHUNK = 32


@dataclass(frozen=True)
class DpSgdConfig:
    """Per-example clipping bound and noise multiplier for private steps."""

    clip_norm: float
    noise_mult: float

    def __post_init__(self) -> None:
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm!r}")
        if not 0 <= self.noise_mult < math.inf:
            raise ValueError(
                f"noise_mult must be finite and non-negative, got {self.noise_mult!r}"
            )
        # infinite clipping is kept for noiseless reference steps; with
        # noise it would make the noise infinite
        if self.clip_norm == math.inf and self.noise_mult > 0:
            raise ValueError("clip_norm must be finite when noise_mult > 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.5
    hidden_units: int = 16
    dp: DpSgdConfig | None = None

    def __post_init__(self) -> None:
        _check_count("epochs", self.epochs, 1)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        _check_count("hidden_units", self.hidden_units, 1)


@dataclass
class MlpHead:
    """Two-layer tanh MLP with per-class logits.

    ``cm_rdp_coeff`` is the Renyi cost coefficient of training: the head
    satisfies (alpha, cm_rdp_coeff * alpha)-RDP for every alpha > 1 (zero
    for non-private training, infinite when DP noise was disabled).
    """

    sizes: list[int]
    weights: list[Array]
    biases: list[Array]
    cm_rdp_coeff: float = 0.0
    loss_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "sizes": self.sizes,
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "cm_rdp_coeff": self.cm_rdp_coeff,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MlpHead":
        sizes = [int(s) for s in payload["sizes"]]
        weights = [
            np.array(flat, dtype=float).reshape(sizes[i], sizes[i + 1])
            for i, flat in enumerate(payload["weights"])
        ]
        biases = [np.array(b, dtype=float) for b in payload["biases"]]
        return cls(
            sizes=sizes,
            weights=weights,
            biases=biases,
            cm_rdp_coeff=float(payload.get("cm_rdp_coeff", 0.0)),
        )

    def save(self, path) -> None:
        with Path(path).open("w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MlpHead":
        with Path(path).open() as fh:
            return cls.from_dict(json.load(fh))


def _row_pair(x0: Array, xk: Array) -> tuple[Array, Array]:
    """``x0`` and ``xk`` as float matrices with the same number of rows."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xk = np.atleast_2d(np.asarray(xk, dtype=float))
    if x0.shape[0] != xk.shape[0]:
        raise ValueError("x0 and xk must have the same number of rows")
    return x0, xk


def head_inputs(x0: Array, xk: Array) -> Array:
    """Concatenate raw features with the row-normalized embedding.

    Normalizing the embedding rows equalizes their scale across nodes;
    magnitudes of the released embedding vary by orders of magnitude with
    graph distance while the class information lives in the direction.
    """
    return _input_rows(*_row_pair(x0, xk))


def _input_rows(x0: Array, xk: Array, rows=slice(None)) -> Array:
    """``head_inputs`` of the rows ``rows`` of ``x0`` and ``xk``, written
    into one new array."""
    # no stacked temporaries: memory that worker threads free stays with
    # their allocator arenas and showed in release-1e5's peak RSS
    left = x0[rows]
    out = np.empty((left.shape[0], left.shape[1] + xk.shape[1]))
    out[:, : left.shape[1]] = left
    _normalize_rows(xk[rows], out=out[:, left.shape[1] :])
    return out


def _row_blocks(rows: int, cells: int) -> list[tuple[int, int]]:
    """Row blocks of a head pass over ``rows`` input rows holding ``cells``
    entries: one block below ``_pool.MIN_CELLS``, else ``rows //
    _pool.BLOCK_ROWS`` blocks of even height, none shorter than
    ``_pool.BLOCK_ROWS`` (a short tail block would take another BLAS
    kernel; a one-row block takes the gemv path)."""
    parts = max(1, rows // _pool.BLOCK_ROWS) if cells >= _pool.MIN_CELLS else 1
    return [(rows * i // parts, rows * (i + 1) // parts) for i in range(parts)]


def _w1_chunks(d_in: int, blocks: int) -> list[tuple[int, int]]:
    """Input-column chunks of the W1 gradient: at most one per row block,
    each starting at a multiple of ``_W1_CHUNK`` columns and, but for a
    single chunk, at least that wide (the last takes the rest)."""
    parts = max(1, min(blocks, d_in // _W1_CHUNK))
    return [(i * _W1_CHUNK, (i + 1) * _W1_CHUNK if i + 1 < parts else d_in)
            for i in range(parts)]


def _row_sums(a: Array) -> Array:
    """``np.add.reduce(a, axis=-1)``, with its bits.  On rows shorter than 8
    entries numpy adds them one after another, starting from 0, so the
    rows are summed a column at a time, in loops along the other axes;
    from 8 entries on numpy adds in pairs, and the reduce is kept."""
    if a.shape[-1] >= 8:
        return np.add.reduce(a, axis=-1)
    total = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def _softmax_inplace(z: Array) -> Array:
    """Overwrite each row of ``z`` (the last axis) with its softmax; return
    ``z``."""
    # the row maximum, one column at a time: a maximum is exact, so this
    # gives the softmax of z.max(axis=-1) at a tenth of its cost on a few
    # columns
    row_max = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(row_max, z[..., j], out=row_max)
    np.subtract(z, row_max[..., None], out=z)
    np.exp(z, out=z)
    z /= _row_sums(z)[..., None]
    return z


def _sq_rows(a: Array) -> Array:
    return _row_sums(a * a)


def _sum_examples(rows: Array, out: Array, major: Array, sums: Array) -> None:
    """Sum T >= 2 heads' (T, m, w >= 2) ``rows`` over examples into ``out``
    (T, 1, w) through an example-major copy ``major`` (m, T, w) and
    ``sums`` (T * w).  Each column is added in example order, as
    ``np.add.reduce(rows, axis=1)`` adds it, but in loops T * w entries
    long instead of w; that reduce adds a column of width 1 in pairs."""
    np.copyto(major, rows.transpose(1, 0, 2))
    np.add.reduce(major.reshape(len(major), -1), axis=0, out=sums)
    out[:, 0] = sums.reshape(len(out), -1)


def _example_sum_task(rows: Array, out: Array):
    """The task that sums the (T, m, w) ``rows`` over examples into ``out``
    (T, 1, w), by ``_sum_examples``, with buffers of its own, where it may."""
    t, m, w = rows.shape
    if t == 1 or w == 1:
        return partial(np.add.reduce, rows, axis=1, keepdims=True, out=out)
    return partial(_sum_examples, rows, out, np.empty((m, t, w)), np.empty(t * w))


def _hidden_rows(inputs: Array, w1: Array, b1: Array, out: Array) -> None:
    """Write ``tanh(inputs @ w1 + b1)`` into ``out``."""
    np.matmul(inputs, w1, out=out)
    out += b1
    np.tanh(out, out=out)


def _predict_hidden_rows(x0: Array, xk: Array, rows, w1: Array, b1: Array,
                         out: Array) -> None:
    """``_hidden_rows`` on the head inputs formed from ``x0[rows]`` and
    ``xk[rows]``."""
    _hidden_rows(_input_rows(x0, xk, rows), w1, b1, out)


def _logits(hidden: Array, w2: Array, b2: Array, out: Array) -> None:
    """Write ``hidden @ w2 + b2`` into ``out``.  Always called on the whole
    matrix: for some row counts BLAS picks another kernel for this narrow
    product, and a row block then differs in the last bits."""
    np.matmul(hidden, w2, out=out)
    out += b2


def _output_grad_rows(
    logits: Array, onehot: Array, hidden: Array, w2_t: Array, x_sq: Array | None,
    clip_norm: float | None, m: int, log_lik: Array, d_tanh: Array, g_hidden: Array,
) -> None:
    """For rows of the batch: overwrite ``logits`` with the gradient of the
    loss w.r.t. them, and write each entry's ``onehot * log(p)`` into
    ``log_lik``, 1 - hidden^2 into ``d_tanh`` and the gradient w.r.t. the
    hidden pre-activations into ``g_hidden``.  ``w2_t`` is W2 transposed.

    The output gradient p - y is scaled by 1/m, or with ``clip_norm`` set
    by each example's clip factor.  With gl_i = p_i - y_i and gh_i =
    (gl_i W2^T) * (1 - h_i^2), example i's squared gradient norm is
    (|x_i|^2 + 1)|gh_i|^2 + (|h_i|^2 + 1)|gl_i|^2; ``x_sq`` holds
    |x_i|^2 + 1.
    """
    g = _softmax_inplace(logits)
    np.maximum(g, 1e-300, out=log_lik)
    np.log(log_lik, out=log_lik)
    log_lik *= onehot
    g -= onehot
    np.square(hidden, out=d_tanh)
    np.subtract(1.0, d_tanh, out=d_tanh)
    if clip_norm is None:
        g /= m
    else:
        np.matmul(g, w2_t, out=g_hidden)
        g_hidden *= d_tanh
        sq_norms = x_sq * _sq_rows(g_hidden)
        sq_norms += (_sq_rows(hidden) + 1.0) * _sq_rows(g)
        g *= _clip_factors(sq_norms, clip_norm)[..., None]
    np.matmul(g, w2_t, out=g_hidden)
    g_hidden *= d_tanh


def _clip_factors(sq_norms: Array, clip_norm: float) -> Array:
    """Per-example factors that scale gradients of squared norms
    ``sq_norms`` to norm at most ``clip_norm``.

    A dense layer's per-example weight gradient x_i (x) g_i has norm
    |x_i| |g_i|, so the squared norms come in closed form.  Each
    per-example gradient is linear in its output gradient, so the backward
    pass on clip-scaled output gradients sums the clipped gradients.
    """
    norms = np.sqrt(sq_norms)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    assert float((norms * factors).max()) <= clip_norm * (1 + 1e-12)
    return factors


def _noised_mean(sums: Array, dp: DpSgdConfig, rngs, m: int) -> Array:
    """The rest of one DP-SGD step after clipping, in place on a (T, n)
    buffer of T models' sums of clipped gradients: add Gaussian noise of
    std clip_norm * noise_mult to row t, drawn from ``rngs[t]`` in the
    row's order, and average over the ``m`` examples."""
    noise_std = dp.clip_norm * dp.noise_mult
    if noise_std > 0:
        for row, rng in zip(sums, rngs):
            row += rng.normal(0.0, noise_std, size=row.shape)
    sums /= m
    return sums


def _param_views(flat: Array, d_in: int, hidden: int, classes: int) -> list[Array]:
    """W1 (T, d_in, h), b1 (T, 1, h), W2 (T, h, C) and b2 (T, 1, C) as
    views of a (T, n) buffer whose row t holds head t's parameters (or
    gradients) in that order, each in C order."""
    views, start = [], 0
    for shape in ((d_in, hidden), (1, hidden), (hidden, classes), (1, classes)):
        stop = start + shape[0] * shape[1]
        views.append(flat[:, start:stop].reshape(len(flat), *shape))
        start = stop
    return views


def _pass_cells(inputs: Array) -> int:
    """The entries that set a pass's row blocks and pool: those of a lone
    head's inputs.  A batch of heads always runs as one block on the
    calling thread."""
    return inputs.size if len(inputs) == 1 else 0


class _HeadPass:
    """Full-batch passes of T heads of one shape over fixed inputs.

    ``params`` is the heads' (T, n) parameter buffer, laid out as
    ``_param_views`` describes, which training updates in place; the
    (T, m, d_in) ``inputs`` and (T, m, C) ``onehot`` hold each head's
    examples.  Every buffer and every task is made once, here.  Each call
    of ``loss_and_grads`` runs the phases the module docstring describes,
    on ``pool`` if it is given.
    """

    def __init__(self, params: Array, hidden_units: int, inputs: Array, onehot: Array,
                 dp: DpSgdConfig | None = None, pool=None) -> None:
        t, m, d_in = inputs.shape
        classes = onehot.shape[2]
        w1, b1, w2, b2 = _param_views(params, d_in, hidden_units, classes)
        self._w2, self._b2 = w2, b2
        self._dp, self._pool, self._m = dp, pool, m
        self._hidden = hidden = np.empty((t, m, hidden_units))
        # the logits, overwritten in place by the output gradient
        self._logits = logits = np.empty((t, m, classes))
        g_hidden, d_tanh = np.empty_like(hidden), np.empty_like(hidden)
        log_lik = np.empty_like(logits)
        self._loss_sums = np.empty(t)
        self._grads = np.empty_like(params)
        g_w1, g_b1, g_w2, g_b2 = _param_views(self._grads, d_in, hidden_units, classes)
        x_sq = _sq_rows(inputs) + 1.0 if dp is not None else None
        clip = dp.clip_norm if dp is not None else None
        w2_t = w2.transpose(0, 2, 1)
        blocks = _row_blocks(m, _pass_cells(inputs))
        self._forward_tasks = [
            partial(_hidden_rows, inputs[:, a:b], w1, b1, hidden[:, a:b]) for a, b in blocks
        ]
        self._row_tasks = [
            partial(_output_grad_rows, logits[:, a:b], onehot[:, a:b], hidden[:, a:b], w2_t,
                    None if x_sq is None else x_sq[:, a:b], clip, m, log_lik[:, a:b],
                    d_tanh[:, a:b], g_hidden[:, a:b])
            for a, b in blocks
        ]
        inputs_t = inputs.transpose(0, 2, 1)
        self._sum_tasks = [
            partial(np.matmul, inputs_t[:, lo:hi], g_hidden, out=g_w1[:, lo:hi])
            for lo, hi in _w1_chunks(d_in, len(blocks))
        ] + [
            _example_sum_task(g_hidden, g_b1),
            partial(np.matmul, hidden.transpose(0, 2, 1), logits, out=g_w2),
            _example_sum_task(logits, g_b2),
            partial(np.add.reduce, log_lik.reshape(t, -1), axis=1, out=self._loss_sums),
        ]

    def loss_and_grads(self, rngs=None) -> tuple[Array, Array]:
        """Each head's mean cross-entropy and its (T, n) gradient buffer
        w.r.t. the parameters at their current values; with DP set, one
        DP-SGD step's gradients, head t drawing noise from ``rngs[t]``.
        The gradients are this pass's own buffer, overwritten by the next
        call."""
        _pool.run_all(self._pool, self._forward_tasks)
        _logits(self._hidden, self._w2, self._b2, self._logits)
        _pool.run_all(self._pool, self._row_tasks)
        _pool.run_all(self._pool, self._sum_tasks)
        losses = -self._loss_sums / self._m
        if self._dp is None:
            return losses, self._grads
        return losses, _noised_mean(self._grads, self._dp, rngs, self._m)


def _rdp_coeff(cfg: TrainConfig) -> float:
    """Renyi cost coefficient of training with ``cfg``: epochs/(2 nm^2)
    full-batch Gaussian steps, zero without DP, infinite without noise."""
    if cfg.dp is None:
        return 0.0
    if cfg.dp.noise_mult == 0:
        return math.inf
    return cfg.epochs / (2.0 * cfg.dp.noise_mult**2)


def _mask_labels(labels: Array, mask: Array, name: str, nodes: int) -> tuple[Array, Array]:
    """The node ids of ``mask`` and their labels, for ``nodes`` feature
    rows with one entry of ``labels`` each.  Labels of another length
    raise a ValueError.  So do a mask that does not hold integers, an id
    outside [0, nodes) and an unlabeled (negative) node, in one ValueError
    that names the first bad id in mask order; ``name`` names the mask."""
    ids, labels = np.asarray(mask), np.asarray(labels)
    if len(labels) != nodes:
        raise ValueError(f"labels hold {len(labels)} entries for {nodes} feature rows")
    # a boolean mask would be read as ids 0 and 1, a fraction truncated
    if ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer node ids, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    # numpy would read a negative id from the end
    bad = (ids < 0) | (ids >= nodes)
    bad[~bad] = labels[ids[~bad]] < 0
    if bad.any():
        raise ValueError(f"{name} contains unlabeled nodes or ids outside "
                         f"[0, {nodes}); the first is {ids[bad.argmax()]}")
    return ids, labels[ids]


def _training_labels(labels: Array, train_mask: Array, nodes: int) -> tuple[Array, Array]:
    """The training nodes' indices and one-hot labels (m, C), with C one
    more than the largest label in ``labels``; ``_mask_labels`` checks the
    mask against ``nodes`` feature rows."""
    if np.size(train_mask) == 0:
        raise ValueError("no training nodes")
    train_mask, y = _mask_labels(labels, train_mask, "training mask", nodes)
    labels = np.asarray(labels)
    return train_mask, np.eye(int(labels[labels >= 0].max()) + 1)[y]


def _head_data(x0: Array, xk: Array, labels: Array, train_mask: Array) -> tuple[Array, Array]:
    """A head's training inputs (m, d_in) and ``_training_labels``' one-hot
    labels (m, C)."""
    x0, xk = _row_pair(x0, xk)
    train_mask, onehot = _training_labels(labels, train_mask, len(x0))
    # rows are normalized one by one, so only the training rows are formed
    return _input_rows(x0, xk, train_mask), onehot


def _joins_batch(first: tuple[Array, Array], size: int, problem: tuple[Array, Array]) -> bool:
    """Whether the ``_head_data`` problem (inputs, onehot) may train in one
    pass with a batch of ``size`` problems shaped like ``first``: its
    shapes match and the stacked inputs stay below ``_pool.MIN_CELLS``.
    So a problem that alone reaches the cutoff trains alone, on row blocks."""
    return (problem[0].shape == first[0].shape and problem[1].shape == first[1].shape
            and (size + 1) * first[0].size < _pool.MIN_CELLS)


def _fit_heads(problems: list[tuple[Array, Array]], cfg: TrainConfig, seeds) -> list[MlpHead]:
    """Train one head per ``_head_data`` problem (inputs, onehot) and seed,
    all in one pass; the problems share their shapes.  Head t is the head
    ``train_head`` fits on problem t with ``seeds[t]``."""
    if len(problems) == 1:
        inputs, onehot = (a[None] for a in problems[0])
    else:
        inputs, onehot = (np.stack(arrays) for arrays in zip(*problems))
    t, m, d_in = inputs.shape
    hidden, classes = cfg.hidden_units, onehot.shape[2]
    params = np.zeros((t, (d_in + 1) * hidden + (hidden + 1) * classes))
    # the output layer starts at zero so early updates follow the data signal
    for w1, seed in zip(_param_views(params, d_in, hidden, classes)[0], seeds):
        w1[...] = stream(seed, _INIT_STREAM).normal(0.0, 1.0 / math.sqrt(d_in),
                                                     size=(d_in, hidden))
    noise_rngs = [stream(seed, _DP_STREAM) for seed in seeds] if cfg.dp is not None else None
    losses = np.empty((cfg.epochs, t))
    with _pool.thread_pool(_pass_cells(inputs)) as pool:
        step = _HeadPass(params, hidden, inputs, onehot, cfg.dp, pool)
        for epoch in range(cfg.epochs):
            losses[epoch], grads = step.loss_and_grads(noise_rngs)
            params -= cfg.learning_rate * grads

    w1, b1, w2, b2 = _param_views(params, d_in, hidden, classes)
    return [
        MlpHead(
            sizes=[d_in, hidden, classes],
            weights=[w1[i].copy(), w2[i].copy()],
            biases=[b1[i, 0].copy(), b2[i, 0].copy()],
            cm_rdp_coeff=_rdp_coeff(cfg),
            loss_history=losses[:, i].tolist(),
        )
        for i in range(t)
    ]


def train_head(
    x0: Array,
    xk: Array,
    labels: Array,
    train_mask: Array,
    cfg: TrainConfig,
    seed: int,
) -> MlpHead:
    """Fit the head on the training nodes by full-batch gradient descent.

    With ``cfg.dp`` set, every epoch clips each example's gradient to
    ``clip_norm`` (global norm across all parameters), sums, perturbs with
    Gaussian noise of std clip_norm * noise_mult, and averages; the
    accumulated Renyi cost is exported as ``cm_rdp_coeff``.
    """
    return _fit_heads([_head_data(x0, xk, labels, train_mask)], cfg, [seed])[0]


def _predict_rows(head: MlpHead, x0: Array, xk: Array, rows: Array | None = None) -> Array:
    """Class probabilities of the rows ``rows`` of ``x0`` and ``xk`` (all
    rows when ``None``); each row block gathers its own rows."""
    w1, b1, w2, b2 = head.weights[0], head.biases[0], head.weights[1], head.biases[1]
    count = x0.shape[0] if rows is None else rows.size
    cells = count * (x0.shape[1] + xk.shape[1])
    hidden = np.empty((count, w1.shape[1]))
    probs = np.empty((count, w2.shape[1]))
    blocks = _row_blocks(count, cells)
    with _pool.thread_pool(cells) as pool:
        _pool.run_all(pool, [
            partial(_predict_hidden_rows, x0, xk, slice(a, b) if rows is None else rows[a:b],
                    w1, b1, hidden[a:b])
            for a, b in blocks
        ])
        _logits(hidden, w2, b2, probs)
        _pool.run_all(pool, [partial(_softmax_inplace, probs[a:b]) for a, b in blocks])
    return probs


def predict_proba(head: MlpHead, x0_row: Array, xk_row: Array) -> Array:
    """Class probabilities for one node (or a batch); rows sum to 1."""
    single = np.asarray(x0_row).ndim == 1
    probs = _predict_rows(head, *_row_pair(x0_row, xk_row))
    return probs[0] if single else probs


def evaluate(head: MlpHead, x0: Array, xk: Array, labels: Array, mask: Array) -> float:
    """Fraction of mask nodes whose argmax class matches the label;
    ``_mask_labels`` checks the mask."""
    if np.size(mask) == 0:
        raise ValueError("empty evaluation mask")
    x0, xk = _row_pair(x0, xk)
    mask, y = _mask_labels(labels, mask, "evaluation mask", len(x0))
    probs = _predict_rows(head, x0, xk, mask)
    return float(np.mean(probs.argmax(axis=1) == y))


@dataclass
class LinearEncoder:
    """Optional linear feature encoder trained with the same (DP-)SGD path.

    ``encode`` maps raw features into class-score space and projects rows
    back onto the unit ball so the result can feed the pipeline directly.
    ``dae_rdp_coeff`` mirrors the head's Renyi cost coefficient.
    """

    weight: Array
    bias: Array
    dae_rdp_coeff: float = 0.0

    def encode(self, features: Array) -> Array:
        scores = np.asarray(features, dtype=float) @ self.weight + self.bias
        return project_rows(scores)


def train_linear_encoder(
    features: Array,
    labels: Array,
    train_mask: Array,
    cfg: TrainConfig,
    seed: int,
) -> LinearEncoder:
    """Fit a linear softmax encoder on the training nodes.

    Plain multinomial regression; with ``cfg.dp`` set, every epoch takes
    the same private step as ``train_head``, drawing noise for W, then b.
    """
    x = np.asarray(features, dtype=float)
    train_mask, onehot = _training_labels(labels, train_mask, len(x))
    x = x[train_mask]
    (m, d), num_classes = x.shape, onehot.shape[1]

    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    noise_rngs = [stream(seed, _DP_STREAM, 1)] if cfg.dp is not None else None
    x_sq = _sq_rows(x) + 1.0

    def backward(g_logits: Array) -> list[Array]:
        return [x.T @ g_logits, g_logits.sum(axis=0)]

    for _ in range(cfg.epochs):
        g_logits = _softmax_inplace(x @ w + b) - onehot
        if cfg.dp is None:
            g_w, g_b = (g / m for g in backward(g_logits))
        else:
            # example i's squared norm over (W, b): (|x_i|^2 + 1) |g_i|^2
            factors = _clip_factors(x_sq * _sq_rows(g_logits), cfg.dp.clip_norm)
            sums = np.concatenate([g.ravel() for g in backward(factors[:, None] * g_logits)])
            grads = _noised_mean(sums[None], cfg.dp, noise_rngs, m)[0]
            g_w, g_b = grads[: w.size].reshape(w.shape), grads[w.size :]
        w -= cfg.learning_rate * g_w
        b -= cfg.learning_rate * g_b

    return LinearEncoder(weight=w, bias=b, dae_rdp_coeff=_rdp_coeff(cfg))
