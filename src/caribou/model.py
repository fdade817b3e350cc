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
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .layers import normalize_rows, project_rows
from .prng import stream

Array = np.ndarray

_INIT_STREAM = 0x1417
_DP_STREAM = 0xD9CD


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


def head_inputs(x0: Array, xk: Array) -> Array:
    """Concatenate raw features with the row-normalized embedding.

    Normalizing the embedding rows equalizes their scale across nodes;
    magnitudes of the released embedding vary by orders of magnitude with
    graph distance while the class information lives in the direction.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xk = np.atleast_2d(np.asarray(xk, dtype=float))
    if x0.shape[0] != xk.shape[0]:
        raise ValueError("x0 and xk must have the same number of rows")
    return np.hstack([x0, normalize_rows(xk)])


def _softmax(z: Array) -> Array:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(head: MlpHead, inputs: Array) -> tuple[Array, Array]:
    hidden = np.tanh(inputs @ head.weights[0] + head.biases[0])
    logits = hidden @ head.weights[1] + head.biases[1]
    return hidden, logits


def _backward(head: MlpHead, inputs: Array, hidden: Array, g_logits: Array) -> list[Array]:
    """Gradients w.r.t. (W1, b1, W2, b2) summed over the rows of
    ``g_logits``, the loss gradient w.r.t. each example's logits."""
    g_w2 = hidden.T @ g_logits
    g_b2 = g_logits.sum(axis=0)
    g_hidden = (g_logits @ head.weights[1].T) * (1.0 - hidden**2)
    g_w1 = inputs.T @ g_hidden
    g_b1 = g_hidden.sum(axis=0)
    return [g_w1, g_b1, g_w2, g_b2]


def _sq_rows(a: Array) -> Array:
    return (a * a).sum(axis=1)


def _mean_loss_and_grads(
    head: MlpHead, inputs: Array, onehot: Array, dp: DpSgdConfig | None = None, rng=None
) -> tuple[float, list[Array]]:
    """Mean cross-entropy and its gradient w.r.t. (W1, b1, W2, b2); with
    ``dp`` set, one DP-SGD step's gradient drawing noise from ``rng``.

    With gl_i = p_i - y_i and gh_i = (gl_i W2^T) * (1 - h_i^2), example i's
    squared gradient norm is (|x_i|^2 + 1)|gh_i|^2 + (|h_i|^2 + 1)|gl_i|^2.
    """
    m = inputs.shape[0]
    hidden, logits = _forward(head, inputs)
    probs = _softmax(logits)
    loss = float(-np.sum(onehot * np.log(np.maximum(probs, 1e-300))) / m)
    if dp is None:
        return loss, _backward(head, inputs, hidden, (probs - onehot) / m)
    g_logits = probs - onehot
    g_hidden = (g_logits @ head.weights[1].T) * (1.0 - hidden**2)
    sq_norms = (_sq_rows(inputs) + 1.0) * _sq_rows(g_hidden)
    sq_norms += (_sq_rows(hidden) + 1.0) * _sq_rows(g_logits)
    backward = functools.partial(_backward, head, inputs, hidden)
    return loss, _dp_step(sq_norms, g_logits, backward, dp, rng)


def _dp_step(
    sq_norms: Array,
    g_out: Array,
    backward: Callable[[Array], list[Array]],
    dp: DpSgdConfig,
    rng,
) -> list[Array]:
    """One DP-SGD gradient: clip each example's gradient to global norm
    ``dp.clip_norm`` across all parameters, sum, add Gaussian noise of std
    clip_norm * noise_mult to each parameter in order, and average.

    ``sq_norms[i]`` is example i's squared gradient norm, in closed form:
    a dense layer's per-example weight gradient x_i (x) g_i has norm
    |x_i| |g_i|.  Each per-example gradient is linear in its row of
    ``g_out``, so ``backward(factors * g_out)`` sums the clipped gradients.
    """
    m = g_out.shape[0]
    norms = np.sqrt(sq_norms)
    factors = np.minimum(1.0, dp.clip_norm / np.maximum(norms, 1e-300))
    assert float((norms * factors).max()) <= dp.clip_norm * (1 + 1e-12)
    noise_std = dp.clip_norm * dp.noise_mult
    grads = []
    for summed in backward(factors[:, None] * g_out):
        if noise_std > 0:
            summed = summed + rng.normal(0.0, noise_std, size=summed.shape)
        grads.append(summed / m)
    return grads


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
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xk = np.atleast_2d(np.asarray(xk, dtype=float))
    if x0.shape[0] != xk.shape[0]:
        raise ValueError("x0 and xk must have the same number of rows")
    # rows are normalized one by one, so only the training rows are formed
    inputs = head_inputs(x0[train_mask], xk[train_mask])
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
    for _ in range(cfg.epochs):
        loss, grads = _mean_loss_and_grads(head, inputs, onehot, cfg.dp, noise_rng)
        head.loss_history.append(loss)
        params = [head.weights[0], head.biases[0], head.weights[1], head.biases[1]]
        for p, g in zip(params, grads):
            p -= cfg.learning_rate * g

    head.cm_rdp_coeff = _rdp_coeff(cfg)
    return head


def predict_proba(head: MlpHead, x0_row: Array, xk_row: Array) -> Array:
    """Class probabilities for one node (or a batch); rows sum to 1."""
    single = np.asarray(x0_row).ndim == 1
    inputs = head_inputs(x0_row, xk_row)
    _, logits = _forward(head, inputs)
    probs = _softmax(logits)
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
        probs = _softmax(x @ w + b)
        g_logits = probs - onehot
        if cfg.dp is None:
            g_w, g_b = (g / m for g in backward(g_logits))
        else:
            # example i's squared norm over (W, b): (|x_i|^2 + 1) |g_i|^2
            sq_norms = x_sq * _sq_rows(g_logits)
            g_w, g_b = _dp_step(sq_norms, g_logits, backward, cfg.dp, noise_rng)
        w -= cfg.learning_rate * g_w
        b -= cfg.learning_rate * g_b

    return LinearEncoder(weight=w, bias=b, dae_rdp_coeff=_rdp_coeff(cfg))
