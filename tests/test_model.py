import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import caribou._pool
from caribou import model as model_module
from caribou.layers import normalize_rows
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
from tests.verify import grad_check, param_row

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

    @pytest.mark.parametrize("labels_of, mask, message", [
        (lambda y: y, [-1, -2, 3], r"outside \[0, 20\); the first is -1$"),
        (lambda y: y, [3, 20, 4], r"outside \[0, 20\); the first is 20$"),
        # id 21 would pass a check against the labels, then fail on the rows
        (lambda y: np.append(y, y[:2]), [0, 21], r"^labels hold 22 entries for 20 feature rows$"),
        # float labels would fail as one-hot indices, bool labels pass as 0 and 1
        (lambda y: y.astype(float), [0, 1], "^labels must hold integer classes, got dtype float64$"),
        (lambda y: y > 1, [0, 1], "^labels must hold integer classes, got dtype bool$"),
    ], ids=["negative", "past-the-end", "more-labels", "float-labels", "bool-labels"])
    @pytest.mark.parametrize("fit", [
        lambda x, *args: train_linear_encoder(x, *args),
        lambda x, *args: train_head(x, x, *args),
    ], ids=["encoder", "head"])
    def test_mask_id_outside_the_nodes_rejected(self, fit, labels_of, mask, message):
        # numpy would train a negative id on a node counted from the end
        x, _, labels = head_case((20, 3))
        cfg = TrainConfig(epochs=2, learning_rate=0.5, hidden_units=4)
        with pytest.raises(ValueError, match=message):
            fit(x, labels_of(labels), np.array(mask), cfg, 0)

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


def reference_train_head(x0, xk, labels, mask, cfg, seed):
    """The head's epoch loop written out serially, with whole-matrix
    products and fresh temporaries: weights, biases and losses."""
    inputs = np.hstack([x0[mask], normalize_rows(xk[mask])])
    onehot = np.eye(int(labels.max()) + 1)[labels[mask]]
    m, d_in = inputs.shape
    init = stream(seed, model_module._INIT_STREAM)
    w1 = init.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, cfg.hidden_units))
    w2 = np.zeros((cfg.hidden_units, onehot.shape[1]))
    b1, b2 = np.zeros(cfg.hidden_units), np.zeros(onehot.shape[1])
    noise = stream(seed, model_module._DP_STREAM)
    losses = []
    for _ in range(cfg.epochs):
        hidden = np.tanh(inputs @ w1 + b1)
        logits = hidden @ w2 + b2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        losses.append(float(-np.sum(onehot * np.log(np.maximum(probs, 1e-300))) / m))

        def backward(g_logits):
            g_hidden = (g_logits @ w2.T) * (1.0 - hidden**2)
            return [inputs.T @ g_hidden, g_hidden.sum(axis=0), hidden.T @ g_logits,
                    g_logits.sum(axis=0)]

        if cfg.dp is None:
            grads = backward((probs - onehot) / m)
        else:
            g_logits = probs - onehot
            g_hidden = (g_logits @ w2.T) * (1.0 - hidden**2)
            sq = ((inputs * inputs).sum(axis=1) + 1.0) * (g_hidden * g_hidden).sum(axis=1)
            sq += ((hidden * hidden).sum(axis=1) + 1.0) * (g_logits * g_logits).sum(axis=1)
            factors = np.minimum(1.0, cfg.dp.clip_norm / np.maximum(np.sqrt(sq), 1e-300))
            std = cfg.dp.clip_norm * cfg.dp.noise_mult
            grads = [
                (g + noise.normal(0.0, std, size=g.shape)) / m
                for g in backward(factors[:, None] * g_logits)
            ]
        for p, g in zip((w1, b1, w2, b2), grads):
            p -= cfg.learning_rate * g
    return [w1, b1, w2, b2], losses


def reference_predict_proba(head, x0, xk):
    """Class probabilities from the whole stacked input matrix."""
    hidden = np.tanh(np.hstack([x0, normalize_rows(xk)]) @ head.weights[0] + head.biases[0])
    logits = hidden @ head.weights[1] + head.biases[1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# head inputs of 16384 x (32 + 32) entries sit above the pool cutoff (row
# blocks and two W1 column chunks, on worker threads when there are CPUs
# for them); 500 x (4 + 4) sit below it (one block on the calling thread).
# At 16384 rows the whole hidden @ W2 takes another BLAS kernel than a
# 4096-row block of it does, so splitting it would show.
ABOVE_CUTOFF = (16384, 32)
BELOW_CUTOFF = (500, 4)
DP = DpSgdConfig(clip_norm=1.0, noise_mult=1.1)


def head_case(size, seed=0):
    rng = stream(seed, 64)
    n, d = size
    x0 = normalize_rows(rng.normal(size=(n, d)))
    xk = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
    labels = rng.integers(0, 4, size=n)
    labels[0] = 3
    return x0, xk, labels


@pytest.fixture(scope="module")
def above_cutoff_references():
    x0, xk, labels = head_case(ABOVE_CUTOFF)
    mask = np.arange(labels.size)
    refs = {}
    for dp in (None, DP):
        cfg = TrainConfig(epochs=6, learning_rate=0.5, hidden_units=16, dp=dp)
        refs[dp] = cfg, reference_train_head(x0, xk, labels, mask, cfg, seed=5)
    return (x0, xk, labels, mask), refs


def count_calls(monkeypatch, name, fail_at=None):
    """Replace ``caribou.model.<name>`` by a wrapper that records, per
    call, whether it ran on the main thread and how many threads were
    alive, and raises on call number ``fail_at``."""
    original = getattr(model_module, name)
    calls = []
    lock = threading.Lock()

    def wrapper(*args):
        with lock:
            number = len(calls)
            calls.append((threading.current_thread() is threading.main_thread(),
                          threading.active_count()))
        if number == fail_at:
            raise ArithmeticError(f"call {number} failed")
        return original(*args)

    monkeypatch.setattr(model_module, name, wrapper)
    return calls


class TestHeadRowBlocks:
    def test_sizes_straddle_the_cutoff(self):
        assert 2 * ABOVE_CUTOFF[0] * ABOVE_CUTOFF[1] >= caribou._pool.MIN_CELLS
        assert 2 * BELOW_CUTOFF[0] * BELOW_CUTOFF[1] < caribou._pool.MIN_CELLS

    @pytest.mark.parametrize("size", [ABOVE_CUTOFF, BELOW_CUTOFF], ids=["above", "below"])
    @pytest.mark.parametrize("dp", [None, DP], ids=["plain", "dp"])
    def test_equals_reference_loop(self, size, dp):
        x0, xk, labels = head_case(size, seed=1)
        mask = np.arange(0, labels.size, 2)
        cfg = TrainConfig(epochs=4, learning_rate=0.5, hidden_units=16, dp=dp)
        head = train_head(x0, xk, labels, mask, cfg, seed=3)
        params, losses = reference_train_head(x0, xk, labels, mask, cfg, seed=3)
        assert head.loss_history == losses
        for a, b in zip(head.weights + head.biases, [params[0], params[2], params[1], params[3]]):
            assert np.array_equal(a, b)
        assert np.array_equal(predict_proba(head, x0, xk), reference_predict_proba(head, x0, xk))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "block_rows", [1000, 2500, 4096, 10_000], ids=["1000", "ragged", "4096", "above-n"]
    )
    def test_equals_reference_for_any_blocks_and_cpus(
        self, block_rows, cpus, above_cutoff_references, monkeypatch
    ):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        (x0, xk, labels, mask), refs = above_cutoff_references
        for cfg, (params, losses) in refs.values():
            head = train_head(x0, xk, labels, mask, cfg, seed=5)
            assert head.loss_history == losses
            for a, b in zip(head.weights + head.biases,
                            [params[0], params[2], params[1], params[3]]):
                assert np.array_equal(a, b)
            expected = reference_predict_proba(head, x0, xk)
            assert np.array_equal(predict_proba(head, x0, xk), expected)
            accuracy = float(np.mean(expected.argmax(axis=1) == labels))
            assert evaluate(head, x0, xk, labels, mask) == accuracy

    def test_equals_reference_under_frequent_thread_switches(
        self, above_cutoff_references, monkeypatch
    ):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 1000)
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 4)
        (x0, xk, labels, mask), refs = above_cutoff_references
        cfg, (params, losses) = refs[DP]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            head = train_head(x0, xk, labels, mask, cfg, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert head.loss_history == losses
        assert np.array_equal(head.weights[0], params[0])

    @pytest.mark.parametrize(
        "size, cpus", [(ABOVE_CUTOFF, 2), (ABOVE_CUTOFF, 1), (BELOW_CUTOFF, 2)],
        ids=["above", "above-one-cpu", "below"],
    )
    def test_worker_threads_only_above_cutoff(self, size, cpus, monkeypatch):
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        x0, xk, labels = head_case(size)
        cfg = TrainConfig(epochs=3, learning_rate=0.5, hidden_units=16)
        before = threading.active_count()
        calls = count_calls(monkeypatch, "_hidden_rows")
        predict_calls = count_calls(monkeypatch, "_predict_rows")
        head = train_head(x0, xk, labels, np.arange(labels.size), cfg, seed=0)
        evaluate(head, x0, xk, labels, np.arange(labels.size))
        assert threading.active_count() == before
        # evaluate enters the prediction pass once, on this thread
        assert predict_calls == [(True, before)]
        blocks = max(size[0] // caribou._pool.BLOCK_ROWS, 1) if size == ABOVE_CUTOFF else 1
        assert len(calls) == 4 * blocks  # 3 epochs, then one prediction
        if size == ABOVE_CUTOFF and cpus > 1:
            # the calling thread is the pool's last worker
            assert all(before < alive <= before + cpus - 1 for _, alive in calls)
        else:
            assert calls == [(True, before)] * (4 * blocks)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("size", [ABOVE_CUTOFF, BELOW_CUTOFF], ids=["above", "below"])
    def test_evaluate_gathers_rows_per_block(self, size, cpus, monkeypatch):
        # evaluate gathers each block's mask rows itself; the probabilities
        # equal those of the gathered matrices
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
        x0, xk, labels = head_case(size, seed=3)
        cfg = TrainConfig(epochs=2, learning_rate=0.5, hidden_units=16)
        head = train_head(x0, xk, labels, np.arange(labels.size), cfg, seed=1)
        mask = stream(3, 66).permutation(labels.size)[: (3 * labels.size) // 4]
        probs = model_module._predict_rows(head, x0, xk, mask)
        expected = predict_proba(head, x0[mask], xk[mask])
        assert np.array_equal(probs, expected)
        accuracy = float(np.mean(expected.argmax(axis=1) == labels[mask]))
        assert evaluate(head, x0, xk, labels, mask) == accuracy

    @pytest.mark.parametrize("dp", [None, DP], ids=["plain", "dp"])
    @pytest.mark.parametrize("hidden", [1, 2, 4])
    def test_narrow_heads_do_not_depend_on_cpu_count(self, hidden, dp, monkeypatch):
        # with 1, 2 or 4 hidden units a row block may take another BLAS
        # kernel than the whole matrix, but the blocks follow the shape
        # alone, so every CPU count gives the same bits
        x0, xk, labels = head_case(ABOVE_CUTOFF, seed=2)
        mask = np.arange(labels.size)
        cfg = TrainConfig(epochs=3, learning_rate=0.5, hidden_units=hidden, dp=dp)
        heads = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: cpus)
            heads.append(train_head(x0, xk, labels, mask, cfg, seed=4))
        for head in heads[1:]:
            assert head.loss_history == heads[0].loss_history
            for a, b in zip(head.weights + head.biases, heads[0].weights + heads[0].biases):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["_hidden_rows", "_output_grad_rows"])
    def test_failing_block_reaches_caller_and_leaves_no_thread(self, name, monkeypatch):
        monkeypatch.setattr(caribou._pool, "BLOCK_ROWS", 2500)
        per_epoch = ABOVE_CUTOFF[0] // 2500
        monkeypatch.setattr(caribou._pool, "usable_cpus", lambda: 2)
        x0, xk, labels = head_case(ABOVE_CUTOFF)
        cfg = TrainConfig(epochs=5, learning_rate=0.5, hidden_units=16, dp=DP)
        before = threading.active_count()
        # the first call of epoch 2 fails; the rest of its phase still ends
        calls = count_calls(monkeypatch, name, fail_at=2 * per_epoch)
        with pytest.raises(ArithmeticError, match=f"call {2 * per_epoch} failed"):
            train_head(x0, xk, labels, np.arange(labels.size), cfg, seed=0)
        assert len(calls) == 3 * per_epoch
        assert all(before < alive <= before + 1 for _, alive in calls)
        assert threading.active_count() == before


def batch_case(count, m=50, seed=0):
    """``count`` heads' data of one shape: 50 rows of 3 + 3 features,
    three classes, every other row a training row."""
    cases = []
    for t in range(count):
        rng = stream(seed, 65, t)
        x0 = normalize_rows(rng.normal(size=(2 * m, 3)))
        xk = rng.normal(size=(2 * m, 3)) * rng.uniform(0.1, 10.0, size=(2 * m, 1))
        labels = rng.integers(0, 3, size=2 * m)
        labels[0] = 2
        cases.append((x0, xk, labels, np.arange(0, 2 * m, 2)))
    return cases


class TestBatchedHeads:
    """T heads trained in one pass equal T ``train_head`` calls."""

    @pytest.mark.parametrize("dp", [None, DP], ids=["plain", "dp"])
    @pytest.mark.parametrize("hidden", [1, 2, 4, 16])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_one_pass_equals_separate_calls(self, count, hidden, dp):
        cfg = TrainConfig(epochs=12, learning_rate=0.5, hidden_units=hidden, dp=dp)
        cases = batch_case(count)
        seeds = [11 + 3 * t for t in range(count)]
        problems = [model_module._head_data(*case) for case in cases]
        heads = model_module._fit_heads(problems, cfg, seeds)
        assert len(heads) == count
        for head, case, seed in zip(heads, cases, seeds):
            single = train_head(*case, cfg, seed=seed)
            assert head.sizes == single.sizes
            assert head.loss_history == single.loss_history
            assert head.cm_rdp_coeff == single.cm_rdp_coeff
            for a, b in zip(head.weights + head.biases, single.weights + single.biases):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    def test_join_rule_follows_shape_and_cutoff(self, monkeypatch):
        # problems of 25 x 6 inputs hold 150 cells each
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 400)
        first, second, third = (model_module._head_data(*c) for c in batch_case(3, m=25))
        assert model_module._joins_batch(first, 1, second)  # 300 cells
        assert not model_module._joins_batch(first, 2, third)  # 450 cells
        longer = model_module._head_data(*batch_case(1, m=27, seed=1)[0])
        assert not model_module._joins_batch(first, 1, longer)
        x0, xk, labels, mask = batch_case(1, m=25, seed=2)[0]
        fewer_classes = model_module._head_data(x0, xk, np.minimum(labels, 1), mask)
        assert fewer_classes[0].shape == first[0].shape
        assert not model_module._joins_batch(first, 1, fewer_classes)
        # a problem that alone reaches the cutoff trains alone
        monkeypatch.setattr(caribou._pool, "MIN_CELLS", 150)
        assert not model_module._joins_batch(first, 1, second)


SUM_TERMS = st.floats(-1e6, 1e6, allow_subnormal=False)


class TestLongAxisSums:
    """The epoch's sums along long axes have the bits of ``np.add.reduce``
    along the short ones."""

    @settings(max_examples=200, deadline=None)
    @given(
        classes=st.integers(1, 12),
        heads=st.sampled_from([1, 2, 7]),
        rows=st.integers(1, 30),
        strided=st.booleans(),
        data=st.data(),
    )
    def test_column_sums_and_softmax(self, classes, heads, rows, strided, data):
        shape = (heads, 2 * rows, 2 * classes) if strided else (heads, rows, classes)
        z = data.draw(arrays(np.float64, shape, elements=SUM_TERMS))
        if strided:
            z = z[:, ::2, 1::2]
        assert np.array_equal(model_module._row_sums(z), np.add.reduce(z, axis=-1))
        expected = np.exp(z - z.max(axis=-1, keepdims=True))
        expected /= np.add.reduce(expected, axis=-1, keepdims=True)
        assert np.array_equal(model_module._softmax_inplace(z.copy()), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 3, 16]),
        heads=st.sampled_from([1, 2, 7]),
        rows=st.integers(1, 40),
        strided=st.booleans(),
        data=st.data(),
    )
    def test_example_sums(self, width, heads, rows, strided, data):
        shape = (heads, 2 * rows, 2 * width) if strided else (heads, rows, width)
        g = data.draw(arrays(np.float64, shape, elements=SUM_TERMS))
        # the sums land in a view of a (T, n) buffer, as the bias
        # gradients do
        buffer = np.full((heads, 3 * width), np.nan)
        out = buffer[:, width : 2 * width].reshape(heads, 1, width)
        if strided:
            g = g[:, 1::2, ::2]
        model_module._example_sum_task(g, out)()
        assert np.array_equal(out, np.add.reduce(g, axis=1, keepdims=True))
        assert np.isnan(buffer[:, :width]).all() and np.isnan(buffer[:, 2 * width :]).all()


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

    @pytest.mark.parametrize("value", [2.5, 3.0, True, 0])
    @pytest.mark.parametrize("field", ["epochs", "hidden_units"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


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


BAD_EVAL_ID = "^evaluation mask .* the first is"


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

    @pytest.mark.parametrize(
        "labels, mask, message",
        [(TOY_Y, [0, -1, 2], f"{BAD_EVAL_ID} -1$"), (TOY_Y, [0, 4], f"{BAD_EVAL_ID} 4$"),
         (np.array([0, -1, -1, 1]), [0, 2, 1], f"{BAD_EVAL_ID} 2$"),
         (np.full(4, -1), [0, 1, 2, 3, 1], f"{BAD_EVAL_ID} 0$"),
         # id 5 would pass a check against the labels, then fail on the rows
         (np.array([0, 0, 1, 1, 0, 1]), [5], "^labels hold 6 entries for 4 feature rows$"),
         # float labels would be compared with the predicted classes as floats
         (TOY_Y.astype(float), [0, 1], "^labels must hold integer classes, got dtype float64$"),
         (TOY_Y > 0, [0, 1], "^labels must hold integer classes, got dtype bool$")],
        ids=["negative", "past-the-end", "unlabeled", "all-unlabeled", "more-labels",
             "float-labels", "bool-labels"],
    )
    def test_bad_mask_id_rejected(self, labels, mask, message):
        # an unlabeled node would score as a miss, and a negative id would
        # score a node counted from the end
        head = toy_head(epochs=1)
        with pytest.raises(ValueError, match=message):
            evaluate(head, TOY_X0, TOY_XK, labels, np.array(mask))

    @pytest.mark.parametrize("mask, problem", [
        ([True, False, True, True], "must hold integer node ids"),
        ([0.0, 2.5], "must hold integer node ids"),
        (["0", "2"], "must hold integer node ids"),
        ([[0, 1], [2, 3]], r"must be a 1-D array of node ids, got shape \(2, 2\)"),
    ], ids=["boolean", "float", "string", "two-d"])
    def test_mask_of_non_integers_rejected(self, mask, problem):
        # numpy would read a boolean mask as ids 0 and 1, truncate 2.5 and
        # fail to broadcast a 2-D mask's labels
        head = toy_head(epochs=1)
        with pytest.raises(ValueError, match=f"evaluation mask {problem}"):
            evaluate(head, TOY_X0, TOY_XK, TOY_Y, np.array(mask))
        with pytest.raises(ValueError, match=f"training mask {problem}"):
            train_head(TOY_X0, TOY_XK, TOY_Y, np.array(mask), TrainConfig(epochs=1), 0)


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
        original = model_module._HeadPass.loss_and_grads

        def corrupted(self, rngs=None):
            losses, grads = original(self, rngs)
            return losses, grads + 1e-3

        monkeypatch.setattr(model_module._HeadPass, "loss_and_grads", corrupted)
        assert not grad_check(head, TOY_X0, TOY_XK, TOY_Y, tol=1e-5)
        # the patched method is the one training calls, so the check
        # cannot pass on a path that training no longer takes
        patched = toy_head(epochs=5)
        assert not np.array_equal(patched.weights[0], head.weights[0])


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

    @pytest.mark.parametrize("fit", [
        lambda x, *args: train_linear_encoder(x, *args),
        lambda x, *args: train_head(x, x, *args),
    ], ids=["encoder", "head"])
    def test_unlabeled_training_node_rejected(self, fit):
        # label -1 marks an unlabeled node; it must not train as the last class
        cfg = TrainConfig(epochs=2, learning_rate=0.5, hidden_units=4)
        with pytest.raises(ValueError, match="training mask contains unlabeled nodes"):
            fit(np.eye(3), [0, 1, -1], [0, 1, 2], cfg, 0)


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
            step = model_module._HeadPass(param_row(head), hidden, x[None], onehot[None], dp)
            losses, flat = step.loss_and_grads([stream(case, 7)])
            g_w1, g_b1, g_w2, g_b2 = model_module._param_views(flat, x.shape[1], hidden, classes)
            ref_loss, ref_grads = reference_head_step(head, x, onehot, dp, stream(case, 7))
            assert losses.tolist() == [ref_loss]
            assert_close_to_reference([g_w1[0], g_b1[0, 0], g_w2[0], g_b2[0, 0]], ref_grads)

    def test_linear_encoder(self):
        rng = stream(62, 0)
        for case in range(120):
            x, labels, classes, dp = random_dp_case(rng, case)
            labels[0] = classes - 1
            cfg = TrainConfig(epochs=1 + case % 3, learning_rate=0.5, dp=dp)
            enc = train_linear_encoder(x, labels, np.arange(x.shape[0]), cfg, seed=case)
            ref_w, ref_b = reference_linear_encoder(x, labels, cfg, seed=case)
            assert_close_to_reference([enc.weight, enc.bias], [ref_w, ref_b])
