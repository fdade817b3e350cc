import math

import numpy as np
import pytest

from caribou import model as model_module
from caribou.model import (
    DpSgdConfig,
    MlpHead,
    TrainConfig,
    evaluate,
    head_inputs,
    predict_proba,
    train_head,
    train_linear_encoder,
)
from caribou.prng import stream
from caribou.verify import grad_check

TOY_X0 = np.array(
    [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]]
)
TOY_XK = np.array(
    [[0.8, -0.2], [0.7, -0.1], [-0.2, 0.8], [-0.1, 0.7]]
)
TOY_Y = np.array([0, 0, 1, 1])
TOY_MASK = np.arange(4)


def toy_head(epochs=200, lr=1.0, dp=None, seed=0):
    cfg = TrainConfig(epochs=epochs, learning_rate=lr, hidden_units=8, dp=dp)
    return train_head(TOY_X0, TOY_XK, TOY_Y, TOY_MASK, cfg, seed=seed)


class TestTrainHead:
    def test_separable_toy_reaches_full_accuracy(self):
        head = toy_head()
        assert evaluate(head, TOY_X0, TOY_XK, TOY_Y, TOY_MASK) == 1.0

    def test_deterministic_per_seed(self):
        a, b = toy_head(seed=3), toy_head(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        c = toy_head(seed=4)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_degenerate_dp_matches_plain_training(self):
        plain = toy_head(epochs=50)
        dp = toy_head(epochs=50, dp=DpSgdConfig(clip_norm=math.inf, noise_mult=0.0))
        assert np.allclose(plain.loss_history, dp.loss_history, rtol=1e-10)
        for wp, wd in zip(plain.weights, dp.weights):
            assert np.allclose(wp, wd, atol=1e-10)

    def test_dp_noise_changes_trajectory_and_exports_cost(self):
        dp = toy_head(epochs=40, dp=DpSgdConfig(clip_norm=1.0, noise_mult=2.0))
        plain = toy_head(epochs=40)
        assert not np.allclose(dp.weights[0], plain.weights[0])
        assert dp.cm_rdp_coeff == pytest.approx(40 / (2 * 4.0))
        assert dp.eps_cm(3.0) == pytest.approx(3.0 * 40 / 8.0)

    def test_dp_zero_noise_mult_exports_infinite_cost(self):
        dp = toy_head(epochs=5, dp=DpSgdConfig(clip_norm=1.0, noise_mult=0.0))
        assert dp.cm_rdp_coeff == math.inf

    def test_empty_train_mask_rejected(self):
        cfg = TrainConfig(epochs=1, learning_rate=0.1)
        with pytest.raises(ValueError, match="training"):
            train_head(TOY_X0, TOY_XK, TOY_Y, np.array([], dtype=int), cfg, seed=0)

    def test_only_training_rows_form_inputs(self):
        # the head's inputs are normalized row by row, so forming them for
        # the training rows alone gives the same weights and losses to the bit
        rng = stream(63, 0)
        x0 = rng.normal(size=(60, 3))
        xk = rng.normal(size=(60, 4))
        labels = rng.integers(0, 3, size=60)
        mask = np.sort(rng.choice(60, size=17, replace=False))
        cfg = TrainConfig(epochs=30, learning_rate=0.5, hidden_units=5)
        head = train_head(x0, xk, labels, mask, cfg, seed=2)
        assert np.array_equal(head_inputs(x0, xk)[mask], head_inputs(x0[mask], xk[mask]))
        rows = train_head(x0[mask], xk[mask], labels[mask], np.arange(mask.size), cfg, seed=2)
        assert head.loss_history == rows.loss_history
        for a, b in zip(head.weights + head.biases, rows.weights + rows.biases):
            assert np.array_equal(a, b)

    def test_row_count_mismatch_rejected(self):
        cfg = TrainConfig(epochs=1, learning_rate=0.1)
        with pytest.raises(ValueError, match="same number of rows"):
            train_head(TOY_X0, TOY_XK[:3], TOY_Y, np.arange(3), cfg, seed=0)

    def test_checkpoint_roundtrip(self, tmp_path):
        head = toy_head(epochs=10)
        path = tmp_path / "head.json"
        head.save(path)
        loaded = MlpHead.load(path)
        assert loaded.sizes == head.sizes
        for wa, wb in zip(head.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        probs_a = predict_proba(head, TOY_X0, TOY_XK)
        probs_b = predict_proba(loaded, TOY_X0, TOY_XK)
        assert np.allclose(probs_a, probs_b)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "clip, noise",
        [(math.inf, 1.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf), (0.0, 1.0),
         (1.0, -0.5)],
    )
    def test_bad_dp_config_rejected(self, clip, noise):
        with pytest.raises(ValueError, match="clip_norm|noise_mult"):
            DpSgdConfig(clip_norm=clip, noise_mult=noise)

    def test_infinite_clip_without_noise_allowed(self):
        assert DpSgdConfig(clip_norm=math.inf, noise_mult=0.0).clip_norm == math.inf

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)


class TestPredictProba:
    def test_zero_weight_head_is_uniform(self):
        head = MlpHead(
            sizes=[4, 3, 2],
            weights=[np.zeros((4, 3)), np.zeros((3, 2))],
            biases=[np.zeros(3), np.zeros(2)],
        )
        probs = predict_proba(head, np.array([1.0, 0.0]), np.array([0.3, 0.4]))
        assert np.allclose(probs, 0.5)

    def test_rows_sum_to_one(self):
        head = toy_head(epochs=20)
        rng = stream(51, 0)
        x0 = rng.normal(size=(100, 2))
        xk = rng.normal(size=(100, 2))
        probs = predict_proba(head, x0, xk)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_consistent_with_evaluate(self):
        head = toy_head()
        probs = predict_proba(head, TOY_X0, TOY_XK)
        acc = float(np.mean(probs.argmax(axis=1) == TOY_Y))
        assert acc == evaluate(head, TOY_X0, TOY_XK, TOY_Y, TOY_MASK)


class TestEvaluate:
    def test_all_correct(self):
        head = toy_head()
        assert evaluate(head, TOY_X0, TOY_XK, TOY_Y, TOY_MASK) == 1.0

    def test_label_complement_on_binary_task(self):
        head = toy_head()
        acc = evaluate(head, TOY_X0, TOY_XK, TOY_Y, TOY_MASK)
        flipped = evaluate(head, TOY_X0, TOY_XK, 1 - TOY_Y, TOY_MASK)
        assert acc + flipped == pytest.approx(1.0)

    def test_empty_mask_rejected(self):
        head = toy_head(epochs=1)
        with pytest.raises(ValueError, match="empty"):
            evaluate(head, TOY_X0, TOY_XK, TOY_Y, np.array([], dtype=int))


class TestGradCheck:
    def test_random_head_passes(self):
        head = toy_head(epochs=5)
        assert grad_check(head, TOY_X0, TOY_XK, TOY_Y, tol=1e-5)

    def test_loose_tolerance_passes(self):
        head = toy_head(epochs=3, seed=9)
        assert grad_check(head, TOY_X0, TOY_XK, TOY_Y, tol=1e-2)

    def test_corrupted_gradient_fails(self, monkeypatch):
        # corrupt only the reported gradient; losses (hence the finite
        # differences) stay correct, so the check must notice
        head = toy_head(epochs=5)
        from caribou import model as model_module

        original = model_module._mean_loss_and_grads

        def corrupted(h, inputs, onehot):
            loss, grads = original(h, inputs, onehot)
            return loss, [g + 1e-3 for g in grads]

        monkeypatch.setattr(model_module, "_mean_loss_and_grads", corrupted)
        assert not grad_check(head, TOY_X0, TOY_XK, TOY_Y, tol=1e-5)


class TestLinearEncoder:
    def test_encoder_trains_and_encodes(self):
        cfg = TrainConfig(epochs=100, learning_rate=0.5, hidden_units=4)
        enc = train_linear_encoder(TOY_X0, TOY_Y, TOY_MASK, cfg, seed=0)
        out = enc.encode(TOY_X0)
        assert out.shape == (4, 2)
        assert np.linalg.norm(out, axis=1).max() <= 1.0 + 1e-12
        assert enc.dae_rdp_coeff == 0.0
        # encoded scores should already separate the toy classes
        assert np.all(out[:2, 0] > out[:2, 1])
        assert np.all(out[2:, 1] > out[2:, 0])

    def test_degenerate_dp_matches_plain_training(self):
        def fit(dp):
            cfg = TrainConfig(epochs=50, learning_rate=0.5, hidden_units=4, dp=dp)
            return train_linear_encoder(TOY_X0, TOY_Y, TOY_MASK, cfg, seed=0)

        plain = fit(None)
        dp = fit(DpSgdConfig(clip_norm=math.inf, noise_mult=0.0))
        assert np.allclose(plain.weight, dp.weight, atol=1e-10)
        assert np.allclose(plain.bias, dp.bias, atol=1e-10)

    def test_dp_encoder_exports_cost(self):
        cfg = TrainConfig(
            epochs=20, learning_rate=0.2, hidden_units=4,
            dp=DpSgdConfig(clip_norm=1.0, noise_mult=1.5),
        )
        enc = train_linear_encoder(TOY_X0, TOY_Y, TOY_MASK, cfg, seed=1)
        assert enc.dae_rdp_coeff == pytest.approx(20 / (2 * 2.25))
        assert enc.eps_dae(2.0) == pytest.approx(2.0 * 20 / 4.5)


def reference_dp_step(per_example_grads, clip, noise_mult, rng):
    """Clip, sum, noise and average materialized per-example gradients."""
    m = per_example_grads[0].shape[0]
    sq = sum(np.sum(g.reshape(m, -1) ** 2, axis=1) for g in per_example_grads)
    factors = np.minimum(1.0, clip / np.maximum(np.sqrt(sq), 1e-300))
    noise_std = clip * noise_mult
    grads = []
    for g in per_example_grads:
        summed = np.tensordot(factors, g, axes=(0, 0))
        if noise_std > 0:
            summed = summed + rng.normal(0.0, noise_std, size=summed.shape)
        grads.append(summed / m)
    return grads


def reference_head_step(head, inputs, onehot, dp, rng):
    """Mean loss and DP gradient from the (m, ...) per-example tensors."""
    hidden = np.tanh(inputs @ head.weights[0] + head.biases[0])
    logits = hidden @ head.weights[1] + head.biases[1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.sum(onehot * np.log(np.maximum(probs, 1e-300))) / inputs.shape[0])
    g_logits = probs - onehot
    g_hidden = (g_logits @ head.weights[1].T) * (1.0 - hidden**2)
    per_ex = [
        np.einsum("mi,mh->mih", inputs, g_hidden),
        g_hidden,
        np.einsum("mh,mc->mhc", hidden, g_logits),
        g_logits,
    ]
    return loss, reference_dp_step(per_ex, dp.clip_norm, dp.noise_mult, rng)


def reference_linear_encoder(x, labels, cfg, seed):
    """Full-batch DP multinomial regression from per-example tensors."""
    onehot = np.eye(int(labels.max()) + 1)[labels]
    w = np.zeros((x.shape[1], onehot.shape[1]))
    b = np.zeros(onehot.shape[1])
    rng = stream(seed, model_module._DP_STREAM, 1)
    for _ in range(cfg.epochs):
        logits = x @ w + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        g_logits = e / e.sum(axis=1, keepdims=True) - onehot
        per_ex = [np.einsum("mi,mc->mic", x, g_logits), g_logits]
        g_w, g_b = reference_dp_step(per_ex, cfg.dp.clip_norm, cfg.dp.noise_mult, rng)
        w -= cfg.learning_rate * g_w
        b -= cfg.learning_rate * g_b
    return w, b


def random_dp_case(rng, case):
    """Shape, inputs with some all-zero rows, labels and a DP config."""
    m, d = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    classes = int(rng.integers(2, 5))
    x = rng.normal(size=(m, d)) * rng.uniform(0.1, 3.0)
    x[rng.random(m) < 0.2] = 0.0
    labels = rng.integers(0, classes, size=m)
    clip = (math.inf, 1e-3, 0.1, 1.0, 10.0)[case % 5]
    # an infinite clip bound only makes sense without noise
    noise_mult = 0.0 if math.isinf(clip) else (0.0, 1.3)[(case // 5) % 2]
    return x, labels, classes, DpSgdConfig(clip_norm=clip, noise_mult=noise_mult)


def assert_close_to_reference(new, ref):
    for a, r in zip(new, ref):
        assert a.shape == r.shape
        assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max()


class TestDpStepMatchesPerExampleReference:
    def test_head_step(self):
        rng = stream(61, 0)
        for case in range(120):
            x, labels, classes, dp = random_dp_case(rng, case)
            hidden = int(rng.integers(1, 10))
            head = MlpHead(
                sizes=[x.shape[1], hidden, classes],
                weights=[rng.normal(size=(x.shape[1], hidden)),
                         rng.normal(size=(hidden, classes))],
                biases=[rng.normal(size=hidden), rng.normal(size=classes)],
            )
            onehot = np.eye(classes)[labels]
            loss, grads = model_module._mean_loss_and_grads(
                head, x, onehot, dp, stream(case, 7)
            )
            ref_loss, ref_grads = reference_head_step(head, x, onehot, dp, stream(case, 7))
            assert loss == ref_loss
            assert_close_to_reference(grads, ref_grads)

    def test_linear_encoder(self):
        rng = stream(62, 0)
        for case in range(120):
            x, labels, classes, dp = random_dp_case(rng, case)
            labels[0] = classes - 1
            cfg = TrainConfig(epochs=1 + case % 3, learning_rate=0.5, dp=dp)
            enc = train_linear_encoder(x, labels, np.arange(x.shape[0]), cfg, seed=case)
            ref_w, ref_b = reference_linear_encoder(x, labels, cfg, seed=case)
            assert_close_to_reference([enc.weight, enc.bias], [ref_w, ref_b])
