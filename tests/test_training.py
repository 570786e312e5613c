"""Tests for gradient-descent training and weight scaling."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from mtjsc import training
from mtjsc.datasets import Dataset
from mtjsc.network import network_forward_float
from mtjsc.training import (
    RawNetwork,
    TrainConfig,
    forward_raw,
    loss_and_gradients,
    one_hot_targets,
    scale_weights,
    train_backprop,
)


def toy_dataset():
    # linearly separable two-point problem
    feats = np.array([[0.8, -0.8], [-0.8, 0.8]])
    labels = np.array([0, 1])
    return Dataset(feats, labels, n_classes=2)


def blob_dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.6, 0.6], [-0.6, 0.0], [0.2, -0.7]])
    feats, labels = [], []
    for k, c in enumerate(centers):
        feats.append(np.clip(c + rng.normal(scale=0.18, size=(n // 3, 2)), -1, 1))
        labels.append(np.full(n // 3, k))
    return Dataset(np.vstack(feats), np.concatenate(labels), n_classes=3)


class TestGradients:
    def test_matches_central_differences(self):
        """Analytic gradients vs finite differences on a 3-2-2 net."""
        rng = np.random.default_rng(0)
        weights = [rng.uniform(-0.8, 0.8, (3, 2)), rng.uniform(-0.8, 0.8, (2, 2))]
        x = rng.uniform(-1, 1, (5, 3))
        y = one_hot_targets(rng.integers(0, 2, 5), 2)
        _, grads = loss_and_gradients(weights, x, y)
        h = 1e-5
        for k, w in enumerate(weights):
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + h
                up, _ = loss_and_gradients(weights, x, y)
                w[idx] = orig - h
                dn, _ = loss_and_gradients(weights, x, y)
                w[idx] = orig
                numeric = (up - dn) / (2 * h)
                scale = max(abs(numeric), abs(grads[k][idx]), 1e-8)
                assert abs(grads[k][idx] - numeric) / scale < 1e-4

    def test_every_experiment_shape(self):
        rng = np.random.default_rng(1)
        for dims in [(6, 2), (6, 4, 2), (10, 3, 5)]:
            weights = [rng.uniform(-0.5, 0.5, (a, b))
                       for a, b in zip(dims[:-1], dims[1:])]
            x = rng.uniform(-1, 1, (4, dims[0]))
            y = one_hot_targets(rng.integers(0, dims[-1], 4), dims[-1])
            _, grads = loss_and_gradients(weights, x, y)
            h = 1e-5
            w = weights[0]
            idx = (0, 0)
            orig = w[idx]
            w[idx] = orig + h
            up, _ = loss_and_gradients(weights, x, y)
            w[idx] = orig - h
            dn, _ = loss_and_gradients(weights, x, y)
            w[idx] = orig
            numeric = (up - dn) / (2 * h)
            assert grads[0][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


class TestTrainBackprop:
    def test_separable_toy_converges(self):
        raw = train_backprop((2, 2), toy_dataset(),
                             TrainConfig(eta=0.5, epochs=200, batch_size=2, seed=1))
        assert raw.history[-1]["train_accuracy"] == 1.0

    def test_loss_history_nonincreasing(self):
        raw = train_backprop((2, 4, 3), blob_dataset(),
                             TrainConfig(eta=0.8, epochs=60, batch_size=16, seed=2))
        losses = [rec["loss"] for rec in raw.history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_hidden_layer_learns_blobs(self):
        data = blob_dataset()
        raw = train_backprop((2, 6, 3), data,
                             TrainConfig(eta=0.3, epochs=120, batch_size=8, seed=3))
        assert raw.history[-1]["train_accuracy"] >= 0.9

    def test_deterministic(self):
        cfg = TrainConfig(eta=0.3, epochs=10, batch_size=8, seed=4)
        r1 = train_backprop((2, 3), blob_dataset(), cfg)
        r2 = train_backprop((2, 3), blob_dataset(), cfg)
        for a, b in zip(r1.weights, r2.weights):
            assert np.array_equal(a, b)

    def test_golden_run_with_dropped_epochs(self):
        """Pins weights and history on a run whose epochs 0, 2 and 6 are
        dropped, so a rewrite of the epoch loop keeps every bit."""
        raw = train_backprop((2, 4, 3), blob_dataset(n=60, seed=9),
                             TrainConfig(eta=20.0, epochs=12, batch_size=8,
                                         seed=11))
        digest = hashlib.sha256(b"".join(w.tobytes() for w in raw.weights))
        assert digest.hexdigest() == ("ca6fd76a9fc941ef3d0d60c93252c56d"
                                      "ca034ed467d0af9217e0c473b185fa2c")
        expected = [
            (1.308833258467729, 10.0, 0.3333333333333333),
            (0.748375851667689, 10.0, 0.6333333333333333),
            (0.748375851667689, 5.0, 0.6333333333333333),
            (0.5557661766201903, 5.0, 0.6666666666666666),
            (0.4813901471249563, 5.0, 0.6666666666666666),
            (0.44695750575996684, 5.0, 0.6666666666666666),
            (0.44695750575996684, 2.5, 0.6666666666666666),
            (0.44021462978053433, 2.5, 0.6666666666666666),
            (0.43428196127101937, 2.5, 0.6666666666666666),
            (0.4300560538022251, 2.5, 0.6666666666666666),
            (0.40488758989619794, 2.5, 0.6666666666666666),
            (0.33772312071790794, 2.5, 0.8)]
        assert raw.history == tuple(
            {"epoch": k, "loss": loss, "eta": eta, "train_accuracy": acc}
            for k, (loss, eta, acc) in enumerate(expected))

    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            train_backprop((3, 2), toy_dataset(), TrainConfig())

    @staticmethod
    def six_feature_dataset(labels, n_features=6, n_classes=2):
        rng = np.random.default_rng(6)
        feats = rng.uniform(-1, 1, (len(labels), n_features))
        return Dataset(feats, np.array(labels), n_classes=n_classes)

    def test_empty_training_set_named(self):
        empty = self.six_feature_dataset([])
        with pytest.raises(ValueError, match="the training set is empty"):
            train_backprop((6, 2), empty, TrainConfig(epochs=1))

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -0.1])
    def test_config_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError, match=f"got {eta!r}"):
            TrainConfig(eta=eta)

    @pytest.mark.parametrize("eta", [True, np.True_, "0.1", None,
                                     np.array(0.1)])
    def test_config_rejects_eta_that_is_not_a_real_number(self, eta):
        with pytest.raises(ValueError, match=rf"^learning rate must be finite "
                                             rf"and positive, got "
                                             rf"{re.escape(repr(eta))}$"):
            TrainConfig(eta=eta)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("epochs", 0), ("epochs", True),
        ("batch_size", 2.0), ("batch_size", -3)])
    def test_config_requires_whole_counts(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"{field} must be an integer >= 1, "
                                 rf"got {value!r}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "a"])
    def test_config_refuses_bad_seed(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be a non-negative "
                                             rf"integer, got {seed!r}"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("dims, message", [
        ((2,), r"at least two layer widths, got \(2,\)"),
        ((), r"at least two layer widths, got \(\)"),
        ((2, 2.5), r"entry 1 is 2.5"),
        ((2, -1, 2), r"entry 1 is -1"),
        ((2, 0, 2), r"entry 1 is 0"),
        ((2, True), r"entry 1 is True")],
        ids=["one width", "no width", "fraction", "negative", "zero", "bool"])
    def test_dims_refused_by_entry(self, dims, message):
        with pytest.raises(ValueError, match=message):
            train_backprop(dims, toy_dataset(), TrainConfig(epochs=1))

    def test_config_takes_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(4),
                          seed=np.uint8(2))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 4, 2)

    def test_config_takes_numpy_eta(self):
        assert TrainConfig(eta=np.float32(0.1)).eta == np.float32(0.1)

    def test_fraction_eta_trains_as_its_float(self):
        cfg = TrainConfig(eta=Fraction(1, 10), epochs=3, batch_size=8, seed=4)
        assert type(cfg.eta) is float and cfg.eta == 0.1
        r1 = train_backprop((2, 3), blob_dataset(), cfg)
        r2 = train_backprop((2, 3), blob_dataset(),
                            TrainConfig(eta=0.1, epochs=3, batch_size=8, seed=4))
        for a, b in zip(r1.weights, r2.weights):
            assert a.dtype == float and np.array_equal(a, b)
        assert r1.history == r2.history

    def test_output_layer_must_hold_every_class(self):
        with pytest.raises(ValueError, match=r"^output layer smaller than the "
                                             r"number of classes$"):
            train_backprop((2, 2), blob_dataset(), TrainConfig(epochs=1))

    def test_stops_once_eta_falls_below_the_floor(self, monkeypatch):
        """With every step uphill, each trial is dropped and eta halves from
        1e-10 until it passes 1e-12, well before the epochs run out."""
        def uphill(weights, x, y):
            loss, grads = loss_and_gradients(weights, x, y)
            return loss, [-g for g in grads]

        monkeypatch.setattr(training, "loss_and_gradients", uphill)
        raw = train_backprop((2, 3), blob_dataset(),
                             TrainConfig(eta=1e-10, epochs=50, seed=4))
        assert [rec["eta"] for rec in raw.history] == [
            1e-10 / 2 ** k for k in range(1, 7)]
        assert len({rec["loss"] for rec in raw.history}) == 1

    def test_divergence_detected(self):
        data = blob_dataset()
        with pytest.raises(RuntimeError, match="diverged"):
            train_backprop((2, 3), data, TrainConfig(eta=1e9, epochs=3, seed=6))


class TestScaleWeights:
    def test_within_unit_range_unchanged(self):
        w = np.array([[0.5, -0.8], [0.1, 0.9]])
        net = scale_weights(RawNetwork((w,)))
        assert net.layers[0].m_scale == 1.0
        assert np.array_equal(net.layers[0].weights, w)

    def test_large_weight_sets_scale(self):
        w = np.array([[3.0, -1.5]])
        net = scale_weights(RawNetwork((w,)))
        assert net.layers[0].m_scale == 3.0
        assert net.layers[0].weights[0, 0] == 1.0
        assert np.max(np.abs(net.layers[0].weights)) <= 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(-4, 4, (6, 3))
        net = scale_weights(RawNetwork((w,)))
        back = net.layers[0].weights * net.layers[0].m_scale
        assert back == pytest.approx(w, rel=1e-15, abs=0.0)

    def test_preserves_network_function(self):
        """Scaling then evaluating through the M/2 form equals the raw net."""
        rng = np.random.default_rng(8)
        raw_w = [rng.uniform(-3, 3, (5, 4)), rng.uniform(-2, 2, (4, 2))]
        net = scale_weights(RawNetwork(tuple(raw_w)))
        for _ in range(20):
            x = rng.uniform(-1, 1, 5)
            ref = forward_raw(raw_w, x[None, :])[-1][0]
            assert network_forward_float(net, x) == pytest.approx(ref, abs=1e-12)
