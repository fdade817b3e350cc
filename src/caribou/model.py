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

One epoch runs in four phases over buffers allocated once per call:

1. row blocks: hidden = tanh(inputs @ W1 + b1);
2. calling thread: logits = hidden @ W2 + b2, on the whole matrix;
3. row blocks: softmax, the loss terms, the output gradient (scaled by
   1/m or by the clip factors) and the hidden gradient;
4. whole-matrix tasks: the W1 gradient in chunks of input columns, and,
   each whole on one thread, the two bias sums, hidden^T @ g and the loss
   sum.

DP noise is then drawn on the calling thread.  ``predict_proba`` runs
phases 1-2 and the softmax, forming the inputs block by block.

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

The blocks depend only on the input's shape.  At least
``_pool.MIN_CELLS`` input entries make ``rows // BLOCK_ROWS`` blocks of
even height, run on ``_pool``'s threads when the process may use two or
more CPUs and one after another otherwise, so the CPU count never changes
the bits.  Fewer entries make one block on the calling thread, with no
thread started.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import _pool
from .layers import _normalize_rows, project_rows
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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")


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

    def eps_cm(self, alpha: float) -> float:
        if alpha <= 1:
            raise ValueError("alpha must exceed 1")
        return self.cm_rdp_coeff * alpha

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


def _input_rows(x0: Array, xk: Array) -> Array:
    return np.hstack([x0, _normalize_rows(xk)])


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


def _softmax_inplace(z: Array) -> Array:
    """Overwrite each row of ``z`` with its softmax; return ``z``."""
    # the row maximum, one column at a time: a maximum is exact, so this
    # gives the softmax of z.max(axis=1) at a tenth of its cost on a few
    # columns
    row_max = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(row_max, z[:, j], out=row_max)
    np.subtract(z, row_max[:, None], out=z)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _sq_rows(a: Array) -> Array:
    return (a * a).sum(axis=1)


def _hidden_rows(inputs: Array, w1: Array, b1: Array, out: Array) -> None:
    """Write ``tanh(inputs @ w1 + b1)`` into ``out``."""
    np.matmul(inputs, w1, out=out)
    out += b1
    np.tanh(out, out=out)


def _predict_hidden_rows(x0: Array, xk: Array, w1: Array, b1: Array, out: Array) -> None:
    """``_hidden_rows`` on the head inputs formed from these rows."""
    _hidden_rows(_input_rows(x0, xk), w1, b1, out)


def _logits(hidden: Array, w2: Array, b2: Array, out: Array) -> None:
    """Write ``hidden @ w2 + b2`` into ``out``.  Always called on the whole
    matrix: for some row counts BLAS picks another kernel for this narrow
    product, and a row block then differs in the last bits."""
    np.matmul(hidden, w2, out=out)
    out += b2


def _output_grad_rows(
    logits: Array, onehot: Array, hidden: Array, w2: Array, x_sq: Array | None,
    clip_norm: float | None, m: int, log_lik: Array, d_tanh: Array, g_hidden: Array,
) -> None:
    """For rows of the batch: overwrite ``logits`` with the gradient of the
    loss w.r.t. them, and write each entry's ``onehot * log(p)`` into
    ``log_lik``, 1 - hidden^2 into ``d_tanh`` and the gradient w.r.t. the
    hidden pre-activations into ``g_hidden``.

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
        np.matmul(g, w2.T, out=g_hidden)
        g_hidden *= d_tanh
        sq_norms = x_sq * _sq_rows(g_hidden)
        sq_norms += (_sq_rows(hidden) + 1.0) * _sq_rows(g)
        g *= _clip_factors(sq_norms, clip_norm)[:, None]
    np.matmul(g, w2.T, out=g_hidden)
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


def _noised_mean(sums: list[Array], dp: DpSgdConfig, rng, m: int) -> list[Array]:
    """The rest of one DP-SGD step after clipping: add Gaussian noise of std
    clip_norm * noise_mult to each sum of clipped gradients, in order, and
    average over the ``m`` examples."""
    noise_std = dp.clip_norm * dp.noise_mult
    grads = []
    for summed in sums:
        if noise_std > 0:
            summed = summed + rng.normal(0.0, noise_std, size=summed.shape)
        grads.append(summed / m)
    return grads


class _HeadPass:
    """Full-batch passes of one head over fixed inputs.

    Every buffer and every task is made once, here; the tasks hold the
    head's weight arrays, which training updates in place.  Each call of
    ``loss_and_grads`` runs the phases the module docstring describes, on
    ``pool`` if it is given.
    """

    def __init__(self, head: MlpHead, inputs: Array, onehot: Array,
                 dp: DpSgdConfig | None = None, pool=None) -> None:
        m, d_in = inputs.shape
        w1, b1, w2, b2 = head.weights[0], head.biases[0], head.weights[1], head.biases[1]
        self._w2, self._b2 = w2, b2
        self._dp, self._pool, self._m = dp, pool, m
        self._hidden = hidden = np.empty((m, w1.shape[1]))
        # the logits, overwritten in place by the output gradient
        self._logits = logits = np.empty((m, w2.shape[1]))
        g_hidden, d_tanh = np.empty_like(hidden), np.empty_like(hidden)
        log_lik = np.empty_like(logits)
        self._loss_sum = np.empty(())
        self._grads = [np.empty_like(w1), np.empty_like(b1), np.empty_like(w2),
                       np.empty_like(b2)]
        g_w1, g_b1, g_w2, g_b2 = self._grads
        x_sq = _sq_rows(inputs) + 1.0 if dp is not None else None
        clip = dp.clip_norm if dp is not None else None
        blocks = _row_blocks(m, inputs.size)
        self._forward_tasks = [
            partial(_hidden_rows, inputs[a:b], w1, b1, hidden[a:b]) for a, b in blocks
        ]
        self._row_tasks = [
            partial(_output_grad_rows, logits[a:b], onehot[a:b], hidden[a:b], w2,
                    None if x_sq is None else x_sq[a:b], clip, m, log_lik[a:b],
                    d_tanh[a:b], g_hidden[a:b])
            for a, b in blocks
        ]
        self._sum_tasks = [
            partial(np.matmul, inputs[:, lo:hi].T, g_hidden, out=g_w1[lo:hi])
            for lo, hi in _w1_chunks(d_in, len(blocks))
        ] + [
            partial(np.sum, g_hidden, axis=0, out=g_b1),
            partial(np.matmul, hidden.T, logits, out=g_w2),
            partial(np.sum, logits, axis=0, out=g_b2),
            partial(np.sum, log_lik, out=self._loss_sum),
        ]

    def loss_and_grads(self, rng=None) -> tuple[float, list[Array]]:
        """Mean cross-entropy and its gradient w.r.t. (W1, b1, W2, b2) at
        the head's current weights; with DP set, one DP-SGD step's gradient
        drawing noise from ``rng``.  Without DP the gradients are this
        pass's own buffers, overwritten by the next call."""
        _pool.run_all(self._pool, self._forward_tasks)
        _logits(self._hidden, self._w2, self._b2, self._logits)
        _pool.run_all(self._pool, self._row_tasks)
        _pool.run_all(self._pool, self._sum_tasks)
        loss = float(-self._loss_sum / self._m)
        if self._dp is None:
            return loss, self._grads
        return loss, _noised_mean(self._grads, self._dp, rng, self._m)


def _rdp_coeff(cfg: TrainConfig) -> float:
    """Renyi cost coefficient of training with ``cfg``: epochs/(2 nm^2)
    full-batch Gaussian steps, zero without DP, infinite without noise."""
    if cfg.dp is None:
        return 0.0
    if cfg.dp.noise_mult == 0:
        return math.inf
    return cfg.epochs / (2.0 * cfg.dp.noise_mult**2)


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
    train_mask = np.asarray(train_mask, dtype=np.int64)
    if train_mask.size == 0:
        raise ValueError("no training nodes")
    labels = np.asarray(labels)
    num_classes = int(labels[labels >= 0].max()) + 1
    x0, xk = _row_pair(x0, xk)
    # rows are normalized one by one, so only the training rows are formed
    inputs = _input_rows(x0[train_mask], xk[train_mask])
    y = labels[train_mask]
    if np.any(y < 0):
        raise ValueError("training mask contains unlabeled nodes")
    onehot = np.eye(num_classes)[y]

    d_in = inputs.shape[1]
    rng = stream(seed, _INIT_STREAM)
    # output layer starts at zero so early updates follow the data signal
    head = MlpHead(
        sizes=[d_in, cfg.hidden_units, num_classes],
        weights=[
            rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, cfg.hidden_units)),
            np.zeros((cfg.hidden_units, num_classes)),
        ],
        biases=[np.zeros(cfg.hidden_units), np.zeros(num_classes)],
    )

    noise_rng = stream(seed, _DP_STREAM) if cfg.dp is not None else None
    params = [head.weights[0], head.biases[0], head.weights[1], head.biases[1]]
    with _pool.thread_pool(inputs.size) as pool:
        step = _HeadPass(head, inputs, onehot, cfg.dp, pool)
        for _ in range(cfg.epochs):
            loss, grads = step.loss_and_grads(noise_rng)
            head.loss_history.append(loss)
            for p, g in zip(params, grads):
                p -= cfg.learning_rate * g

    head.cm_rdp_coeff = _rdp_coeff(cfg)
    return head


def predict_proba(head: MlpHead, x0_row: Array, xk_row: Array) -> Array:
    """Class probabilities for one node (or a batch); rows sum to 1."""
    single = np.asarray(x0_row).ndim == 1
    x0, xk = _row_pair(x0_row, xk_row)
    w1, b1, w2, b2 = head.weights[0], head.biases[0], head.weights[1], head.biases[1]
    rows, cells = x0.shape[0], x0.shape[0] * (x0.shape[1] + xk.shape[1])
    hidden = np.empty((rows, w1.shape[1]))
    probs = np.empty((rows, w2.shape[1]))
    blocks = _row_blocks(rows, cells)
    with _pool.thread_pool(cells) as pool:
        _pool.run_all(pool, [
            partial(_predict_hidden_rows, x0[a:b], xk[a:b], w1, b1, hidden[a:b])
            for a, b in blocks
        ])
        _logits(hidden, w2, b2, probs)
        _pool.run_all(pool, [partial(_softmax_inplace, probs[a:b]) for a, b in blocks])
    return probs[0] if single else probs


def evaluate(head: MlpHead, x0: Array, xk: Array, labels: Array, mask: Array) -> float:
    """Fraction of mask nodes whose argmax class matches the label."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty evaluation mask")
    probs = predict_proba(head, np.asarray(x0)[mask], np.asarray(xk)[mask])
    predicted = probs.argmax(axis=1)
    return float(np.mean(predicted == np.asarray(labels)[mask]))


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

    def eps_dae(self, alpha: float) -> float:
        if alpha <= 1:
            raise ValueError("alpha must exceed 1")
        return self.dae_rdp_coeff * alpha

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
    train_mask = np.asarray(train_mask, dtype=np.int64)
    if train_mask.size == 0:
        raise ValueError("no training nodes")
    labels = np.asarray(labels)
    num_classes = int(labels[labels >= 0].max()) + 1
    x = np.asarray(features, dtype=float)[train_mask]
    y = labels[train_mask]
    onehot = np.eye(num_classes)[y]
    m, d = x.shape

    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    noise_rng = stream(seed, _DP_STREAM, 1) if cfg.dp is not None else None
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
            g_w, g_b = _noised_mean(backward(factors[:, None] * g_logits), cfg.dp, noise_rng, m)
        w -= cfg.learning_rate * g_w
        b -= cfg.learning_rate * g_b

    return LinearEncoder(weight=w, bias=b, dae_rdp_coeff=_rdp_coeff(cfg))
