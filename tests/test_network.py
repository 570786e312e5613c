"""Tests for float and stream-domain network evaluation."""

import gc
import importlib
import json
import math
import pkgutil
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

import mtjsc
from mtjsc import network, streams
from mtjsc.network import (
    INPUT_SECOND_MOMENT,
    EvalConfig,
    LayerSpec,
    NetworkSpec,
    accuracy,
    child_seed,
    classify,
    layer_forward_float,
    layer_forward_isc,
    load_network,
    network_forward,
    network_forward_float,
    network_from_dict,
    neuron_forward_isc,
    save_network,
    weight_sum_offset,
)
from mtjsc.sng import SngKind, sng_bits
from mtjsc.streams import default_tanh_states, fsm_tanh


def bip_stream(v, n, seed):
    """n bits whose share of 1s carries the bipolar value v."""
    rng = np.random.default_rng(seed)
    return (rng.random(n) < (v + 1) / 2).astype(np.uint8)


class TestFloatNeuron:
    """One-neuron layers: `layer_forward_float` on a single weight column."""

    def test_cancellation(self):
        w = np.array([1.0, -1.0])
        (a,), (t,) = layer_forward_float(LayerSpec(w[:, None], 2.0), np.ones(2))
        assert a == 0.0 and t == 0.0

    def test_single_weight(self):
        w = np.array([0.5])
        (a,), (t,) = layer_forward_float(LayerSpec(w[:, None], 2.0), np.ones(1))
        assert a == pytest.approx(1.0)
        assert t == pytest.approx(math.tanh(1.0))

    def test_zero_weights(self):
        w = np.zeros(5)
        (a,), (t,) = layer_forward_float(LayerSpec(w[:, None], 3.0), np.ones(5))
        assert a == 0.0 and t == 0.0

    def test_scaled_form_matches_unipolar_sum(self):
        """(M/2)(w.x + w.1) equals the plain weighted sum of (x+1)/2 inputs
        under the unscaled weights M*w."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 20)
            w = rng.uniform(-1, 1, n)
            x = rng.uniform(-1, 1, n)
            m = rng.uniform(1, 5)
            (a,), _ = layer_forward_float(LayerSpec(w[:, None], m), x)
            direct = np.sum((m * w) * ((x + 1) / 2))
            assert a == pytest.approx(direct, abs=1e-12)


class TestIscNeuron:
    def test_cancellation_statistical(self):
        """w = (1, -1) on all-ones inputs averages to 0 over 48 seeds.

        Bound 0.05; the mean reads -0.0002, and a 48-seed mean has a sigma
        of about 0.009, so the margin is over five sigma.
        """
        ones = np.ones((2, 512), dtype=np.uint8)
        vals = []
        for s in range(48):
            rng = child_seed(s, 1)
            out = neuron_forward_isc(np.array([1.0, -1.0]), ones, 2.0, rng)
            vals.append(2 * out.mean() - 1)
        assert abs(np.mean(vals)) <= 0.05

    def test_zero_weights_statistical(self):
        """Zero weights on zero-valued inputs average to 0 over 48 seeds.

        Bound 0.05; the mean reads 0.037, and a 48-seed mean has a sigma of
        about 0.024, so this is the tight one.  Over 600 fresh seeds the
        bias is 0.003 +- 0.006: the 0.037 is a fluctuation of these seeds,
        not a bias.  If a change pushes it past 0.05, measure the bias over
        fresh seeds before anything else; the bound stays.
        """
        vals = []
        for s in range(48):
            rng = child_seed(100 + s, 1)
            xs = np.stack([bip_stream(0.0, 512, 500 + 8 * s + i)
                           for i in range(8)])
            out = neuron_forward_isc(np.zeros(8), xs, 2.0, rng)
            vals.append(2 * out.mean() - 1)
        assert abs(np.mean(vals)) <= 0.05

    def test_tracks_float_reference(self):
        """Mean |delta t| across random 8-input neurons stays within 0.08.

        The mean reads 0.060 (per trial: bias -0.008, sigma 0.090, so the
        100-trial mean of |delta t| has a sigma near 0.006).  Ten disjoint
        100-trial sets under this construction read 0.049-0.062.
        """
        errs = []
        for trial in range(100):
            rng = np.random.default_rng(trial)
            w = rng.uniform(-1, 1, 8)
            x = rng.uniform(-1, 1, 8)
            _, (t_ref,) = layer_forward_float(LayerSpec(w[:, None], 2.0), x)
            srng = child_seed(trial, 2)
            xs = np.stack([bip_stream(xi, 512, 900 + 16 * trial + i)
                           for i, xi in enumerate(x)])
            out = neuron_forward_isc(w, xs, 2.0, srng)
            errs.append(abs(2 * out.mean() - 1 - t_ref))
        assert np.mean(errs) <= 0.08

    @pytest.mark.parametrize("n_inputs", [1, 2, 7, 8])
    def test_weight_sum_offset_tracks_sum(self, n_inputs):
        """The offset's running sum stays within half a level of t*sum(w)/2,
        and every level fits the adder's range, for sums up to +-N."""
        n = 512
        shift = (n_inputs + 1) // 2
        m = n_inputs + 2 * shift + 2
        t = np.arange(1, n + 1)
        sums = np.concatenate([
            np.linspace(-n_inputs, n_inputs, 8 * n_inputs + 1),
            np.random.default_rng(n_inputs).uniform(-n_inputs, n_inputs, 20)])
        for w_sum in sums:
            levels = weight_sum_offset(w_sum, n_inputs, n)
            # the XNOR products and the two fair bits add at most N + 2
            assert levels.min() >= 0 and levels.max() + n_inputs + 2 <= m
            running = np.cumsum(levels - shift)
            assert np.all(np.abs(running - t * w_sum / 2) <= 0.5 + 1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_extreme_weight_sum_fits_adder(self, sign):
        """All-+-1 weights (sum(w) = +-N) stay in the adder's range."""
        ones = np.ones((7, 256), dtype=np.uint8)
        out = neuron_forward_isc(np.full(7, sign), ones, 1.0, child_seed(0))
        assert (2 * out.mean() - 1) * sign > 0.9


def reference_fair_bits(n, rng):
    """n fair bits, one Python int at a time: word k of the generator's raw
    output gives the 16-bit uniforms 4k..4k+3 from its low bits up, and a
    bit is 1 where the uniform is below 2**15."""
    words = rng.bit_generator.random_raw(-(-n // 4))
    uniforms = [(int(word) >> (16 * k)) & 0xFFFF
                for word in words for k in range(4)][:n]
    return np.array([u < 1 << 15 for u in uniforms], dtype=np.int64)


def reference_neuron(w, x_bits, m_scale, rng):
    """One neuron, one sng_bits call per input, then two fair-bit rows."""
    n_inputs, n = len(w), len(x_bits[0])
    levels = weight_sum_offset(w.sum(), n_inputs, n)
    for wi, xb in zip(w, x_bits):
        wb = sng_bits((wi + 1.0) / 2.0, n, rng)
        levels = levels + (1 - (wb ^ xb))
    levels = levels + reference_fair_bits(n, rng) + reference_fair_bits(n, rng)
    m = n_inputs + 2 * ((n_inputs + 1) // 2) + 2
    gain = m_scale * (1.0 - np.mean(w * w) * INPUT_SECOND_MOMENT)
    return fsm_tanh((2 * levels - m)[None],
                    default_tanh_states(n_inputs, gain))[0]


def reference_forward(net, x, config, sample_key):
    """The stream path sample by sample, neuron by neuron, input by input;
    it reads no SNG kind."""
    n = config.stream_length
    rng = child_seed(config.seed, 7, *sample_key)
    bits = [sng_bits((xi + 1.0) / 2.0, n, rng) for xi in x]
    for layer in net.layers:
        bits = [reference_neuron(layer.weights[:, j], bits, layer.m_scale, rng)
                for j in range(layer.weights.shape[1])]
    return np.array([(2 * int(b.sum()) - n) / n for b in bits])


class TestLayerKernel:
    """The batched stream path against the per-input reference, exactly."""

    def small_net(self):
        rng = np.random.default_rng(6)
        return NetworkSpec((LayerSpec(rng.uniform(-1, 1, (9, 5)), 2.5),
                            LayerSpec(rng.uniform(-1, 1, (5, 3)), 1.5)))

    def split_kernel(self, monkeypatch):
        """At DRAW_BLOCK = 2 * 11 * 32 words, two of small_net's first-layer
        neurons (11 rows of 32 words at n = 128) share a block, and its
        second layer is one block."""
        monkeypatch.setattr(network, "DRAW_BLOCK", 2 * 11 * 32)

    def layer_inputs(self):
        return np.stack([bip_stream(0.2 * i - 0.8, 128, 60 + i)
                         for i in range(9)])

    # either kind: the reference reads none
    @pytest.mark.parametrize("kind", [SngKind.BMS, SngKind.NORMAL])
    # None keeps every draw in one block; 1 draws one row per block, and
    # 3 * 32 words (three rows at n = 128) splits the 9 input rows evenly
    # and each neuron's 11 or 7 rows unevenly; 2 * 11 * 32 puts two of the
    # first layer's neurons and three of the second's in one block
    @pytest.mark.parametrize("draw_block", [None, 1, 3 * 32, 2 * 11 * 32])
    def test_matches_per_input_reference(self, kind, draw_block, monkeypatch):
        if draw_block is not None:
            monkeypatch.setattr(network, "DRAW_BLOCK", draw_block)
        net = self.small_net()
        rng = np.random.default_rng(7)
        for trial in range(4):
            # inputs at exactly -1 and 1 as well as inside
            x = np.clip(rng.uniform(-1.2, 1.2, 9), -1.0, 1.0)
            cfg = EvalConfig(stream_length=128, seed=trial, sng_kind=kind)
            out = network_forward(net, x, cfg, sample_key=(trial,))
            assert np.array_equal(out, reference_forward(net, x, cfg,
                                                         (trial,)))

    def test_caller_generator_ends_after_the_layer(self, monkeypatch):
        """The caller's generator ends where serial draws end, and keeps
        the 32-bit half that a float32 draw buffered."""
        self.split_kernel(monkeypatch)
        layer = self.small_net().layers[0]
        x_bits = self.layer_inputs()
        rng, ref = child_seed(4), child_seed(4)
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
        out = layer_forward_isc(layer, x_bits, rng)
        expect = [reference_neuron(layer.weights[:, j], x_bits, layer.m_scale,
                                   ref) for j in range(5)]
        assert np.array_equal(out, np.stack(expect))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_wide_fan_in_matches_reference(self, monkeypatch):
        """A 300-input layer counts up to 300 mismatches a cycle, past what
        a uint8 holds: weights near +1 on inputs near -1, and near -1 on
        inputs near +1, mismatch on about 280 inputs every cycle.  The
        levels then sit about 300 below the adder's midpoint, so a count
        wrapped at 256 flips their sign."""
        # two 302-row neurons of 32 words per block: the first layer is two
        # blocks, the second one
        monkeypatch.setattr(network, "DRAW_BLOCK", 2 * 302 * 32)
        rng = np.random.default_rng(12)
        sign = np.repeat([1.0, -1.0], 150)
        net = NetworkSpec((
            LayerSpec(sign[:, None] * rng.uniform(0.9, 1.0, (300, 4)), 1.0),
            LayerSpec(rng.uniform(-1, 1, (4, 3)), 2.0)))
        for trial in range(2):
            x = -sign * rng.uniform(0.9, 1.0, 300)
            cfg = EvalConfig(stream_length=128, seed=trial)
            out = network_forward(net, x, cfg, sample_key=(trial,))
            assert np.array_equal(out, reference_forward(net, x, cfg,
                                                         (trial,)))

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64,
        np.random.Philox], ids=lambda cls: cls.__name__)
    def test_other_bit_generators_match_reference(self, bit_generator,
                                                  monkeypatch):
        self.split_kernel(monkeypatch)
        layer = self.small_net().layers[0]
        x_bits = self.layer_inputs()
        rng = np.random.Generator(bit_generator(9))
        ref = np.random.Generator(bit_generator(9))
        out = layer_forward_isc(layer, x_bits, rng)
        expect = [reference_neuron(layer.weights[:, j], x_bits, layer.m_scale,
                                   ref) for j in range(5)]
        assert np.array_equal(out, np.stack(expect))
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_plans_stay_with_their_layer(self, monkeypatch):
        """Layers built and freed in a loop each get their own plan, and no
        plan keeps its layer alive."""
        self.split_kernel(monkeypatch)
        x_bits = self.layer_inputs()
        weights = np.random.default_rng(10).uniform(-1, 1, (6, 9, 5))
        refs = []
        for trial, w in enumerate(weights):
            layer = LayerSpec(w, 1.5)
            out = layer_forward_isc(layer, x_bits, child_seed(trial))
            ref_rng = child_seed(trial)
            expect = [reference_neuron(w[:, j], x_bits, 1.5, ref_rng)
                      for j in range(5)]
            assert np.array_equal(out, np.stack(expect))
            assert list(layer._plans) == [128]
            refs.append(weakref.ref(layer))
            del layer
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_one_dimensional_inputs_named(self):
        layer = LayerSpec(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match=r"got shape \(128,\)"):
            layer_forward_isc(layer, np.zeros(128, dtype=np.uint8),
                              child_seed(0))

    def test_no_cycles_named(self):
        layer = LayerSpec(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match=r"no cycles: shape \(3, 0\)"):
            layer_forward_isc(layer, np.zeros((3, 0), dtype=np.uint8),
                              child_seed(0))

    @pytest.mark.parametrize("value", [3, 0.4, -1, float("nan")])
    def test_non_bit_entry_named(self, value):
        layer = LayerSpec(np.zeros((3, 2)), 1.0)
        x_bits = np.ones((3, 128))
        x_bits[1, 5] = value
        with pytest.raises(ValueError,
                           match=rf"entry \(1, 5\) is {float(value)!r}; "
                                 "stream bits must be 0 or 1"):
            layer_forward_isc(layer, x_bits, child_seed(0))

    def test_bool_and_float_bits_match_uint8(self):
        layer = self.small_net().layers[0]
        x_bits = self.layer_inputs()
        expect = layer_forward_isc(layer, x_bits, child_seed(1))
        for bits in (x_bits.astype(bool), x_bits.astype(float)):
            out = layer_forward_isc(layer, bits, child_seed(1))
            assert out.dtype == np.uint8 and np.array_equal(out, expect)

    def test_fan_in_mismatch(self):
        layer = LayerSpec(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match="1 input streams"):
            layer_forward_isc(layer, np.zeros((1, 128), dtype=np.uint8),
                              child_seed(0))

    @pytest.mark.parametrize("kind", [SngKind.BMS, SngKind.NORMAL])
    def test_neuron_wrapper_matches_reference(self, kind):
        """The wrapper matches the reference neuron, and a one-neuron
        network priced as either kind streams the wrapper's output."""
        w = np.random.default_rng(8).uniform(-1, 1, 6)
        xs = np.stack([bip_stream(0.3 * i - 0.8, 256, 40 + i)
                       for i in range(6)])
        out = neuron_forward_isc(w, xs, 2.0, child_seed(3))
        ref = reference_neuron(w, xs, 2.0, child_seed(3))
        assert np.array_equal(out, ref)
        cfg = EvalConfig(stream_length=256, seed=3, sng_kind=kind)
        x = np.linspace(-0.8, 0.7, 6)
        rng = child_seed(cfg.seed, 7)
        x_bits = sng_bits((x + 1.0) / 2.0, 256, rng)
        out = neuron_forward_isc(w, x_bits, 2.0, rng)
        net = NetworkSpec((LayerSpec(w[:, None], 2.0),))
        assert np.array_equal(network_forward(net, x, cfg),
                              [(2 * int(out.sum()) - 256) / 256])


class TestNetworkForward:
    def net_1layer(self, weights, m=1.0):
        return NetworkSpec((LayerSpec(np.asarray(weights, dtype=float), m),))

    def test_zero_network(self):
        net = self.net_1layer(np.zeros((4, 3)))
        out = network_forward_float(net, np.array([0.5, -0.5, 1.0, 0.0]))
        assert np.all(out == 0.0)

    def test_float_path_composes(self):
        rng = np.random.default_rng(1)
        w1 = rng.uniform(-1, 1, (4, 3))
        w2 = rng.uniform(-1, 1, (3, 2))
        net = NetworkSpec((LayerSpec(w1, 2.0), LayerSpec(w2, 1.5)))
        x = rng.uniform(-1, 1, 4)
        h = np.tanh(0.5 * 2.0 * (w1.T @ x + w1.sum(axis=0)))
        expect = np.tanh(0.5 * 1.5 * (w2.T @ h + w2.sum(axis=0)))
        assert network_forward(net, x, EvalConfig()) == pytest.approx(expect)

    def test_isc_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        net = self.net_1layer(rng.uniform(-1, 1, (6, 2)), m=2.0)
        x = rng.uniform(-1, 1, 6)
        cfg = EvalConfig(stream_length=128, seed=5)
        out1 = network_forward(net, x, cfg, sample_key=(0,))
        out2 = network_forward(net, x, cfg, sample_key=(0,))
        assert np.array_equal(out1, out2)

    def test_precision_monotonicity(self):
        """Mean abs deviation from float shrinks from n=128 to n=2048."""
        rng = np.random.default_rng(3)
        net = self.net_1layer(rng.uniform(-1, 1, (6, 3)), m=2.0)
        devs = {128: [], 2048: []}
        for trial in range(100):
            x = np.random.default_rng(50 + trial).uniform(-1, 1, 6)
            ref = network_forward_float(net, x)
            for n in devs:
                cfg = EvalConfig(stream_length=n, seed=trial)
                out = network_forward(net, x, cfg, sample_key=(trial,))
                devs[n].append(np.mean(np.abs(out - ref)))
        assert np.mean(devs[2048]) < np.mean(devs[128])

    def test_traced_fsm_sees_every_layer(self, monkeypatch):
        """A counting wrapper put on `streams.fsm_tanh` in every mtjsc
        module that holds it, as a tracer installs one, sees one squash per
        layer of a stream sample."""
        original = streams.fsm_tanh
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for info in pkgutil.iter_modules(mtjsc.__path__):
            module = importlib.import_module(f"mtjsc.{info.name}")
            if getattr(module, "fsm_tanh", None) is original:
                monkeypatch.setattr(module, "fsm_tanh", counting)
        rng = np.random.default_rng(4)
        net = NetworkSpec((LayerSpec(rng.uniform(-1, 1, (6, 4)), 2.0),
                           LayerSpec(rng.uniform(-1, 1, (4, 2)), 1.5)))
        network_forward(net, rng.uniform(-1, 1, 6),
                        EvalConfig(stream_length=128), sample_key=(0,))
        assert len(calls) == 2

    @pytest.mark.parametrize("dims, n", [((196, 100, 10), 256),
                                         ((60, 20, 2), 1024)],
                             ids=["196-100-10", "60-20-2"])
    def test_kind_does_not_change_outputs(self, dims, n):
        """NORMAL and BMS configs give identical outputs, also with one
        weight and one input at p = 1/2 - 2**-18, whose min(p, 1 - p) and
        1 - p both round to 2**15."""
        rng = np.random.default_rng(sum(dims))
        weights = [rng.uniform(-1, 1, shape)
                   for shape in zip(dims[:-1], dims[1:])]
        weights[0][3, 1] = -2.0**-17
        net = NetworkSpec(tuple(LayerSpec(w, 2.0) for w in weights))
        for k in range(3):
            x = rng.uniform(-1, 1, dims[0])
            x[5] = -2.0**-17
            normal, bms = (network_forward(
                net, x, EvalConfig(stream_length=n, seed=k, sng_kind=kind),
                sample_key=(k,)) for kind in (SngKind.NORMAL, SngKind.BMS))
            assert np.array_equal(normal, bms)

    def test_dimension_mismatch(self):
        net = self.net_1layer(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            network_forward(net, np.zeros(3), EvalConfig())

    @pytest.mark.parametrize("stream_length", [None, 128])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5,
                                     -1.0000001])
    def test_non_finite_input_rejected(self, stream_length, bad):
        """Both paths name the first input outside [-1, 1] and its value,
        and accept exactly -1 and 1."""
        net = self.net_1layer(np.full((4, 2), 0.5))
        x = np.array([0.1, bad, 0.2, bad])
        with pytest.raises(ValueError, match=rf"input 1 is {bad}; inputs must "
                                             rf"lie in \[-1, 1\]"):
            network_forward(net, x, EvalConfig(stream_length=stream_length))
        x = np.array([1.0, -1.0, 0.2, 1.0])
        out = network_forward(net, x, EvalConfig(stream_length=stream_length))
        assert np.all(np.abs(out) <= 1.0)


class TestGolden:
    """Pinned stream outputs of a tiny net: a change to the draw order, the
    word layout or the threshold quantization fails here.

    Both kinds deliver the bits of the one map (u < rint(min(p, 1 - p) *
    2**16)) ^ (p >= 1/2), so they share the pinned outputs; the float
    outputs are 0.710, 0.229 and 0.168.
    """

    NET = NetworkSpec((
        LayerSpec(np.array([[0.5, -0.25, 1.0],
                            [-0.75, 0.125, -1.0],
                            [0.3, 0.9, -0.6],
                            [0.0, -0.4, 0.2]]), 2.0),
        LayerSpec(np.array([[0.6, -0.7, 0.05],
                            [-0.2, 0.8, -0.35],
                            [0.45, 0.1, 0.7]]), 1.5)))
    X = np.array([0.8, -0.3, 1.0, -0.05])

    @pytest.mark.parametrize("kind", [SngKind.BMS, SngKind.NORMAL])
    def test_pinned_outputs(self, kind):
        cfg = EvalConfig(stream_length=128, seed=11, sng_kind=kind)
        out = network_forward(self.NET, self.X, cfg, sample_key=(3,))
        assert np.array_equal(out, np.array([0.53125, 0.15625, 0.15625]))


class TestClassify:
    def test_argmax(self):
        assert classify(np.array([0.9, -0.2])) == 0
        assert classify(np.array([-0.5, 0.1, 0.9])) == 2

    def test_tie_breaks_low(self):
        assert classify(np.array([0.3, 0.3, 0.3])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify(np.array([]))

    def test_single_sample_accuracy(self):
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        feats = np.array([[1.0]])
        assert accuracy(net, feats, np.array([0]), EvalConfig()) == 1.0

    @pytest.mark.parametrize("n_labels", [1, 4])
    def test_label_count_must_match_rows(self, n_labels):
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        with pytest.raises(ValueError, match=f"{n_labels} labels for 2 "):
            accuracy(net, np.ones((2, 1)), np.zeros(n_labels), EvalConfig())

    def test_fractional_label_named(self):
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        with pytest.raises(ValueError, match="label 0 is 0.5"):
            accuracy(net, np.ones((2, 1)), np.array([0.5, 0.0]), EvalConfig())
        with pytest.raises(ValueError, match="label 1 is nan"):
            accuracy(net, np.ones((2, 1)), np.array([0.0, np.nan]),
                     EvalConfig())

    def test_integral_float_labels_count(self):
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        feats = np.array([[1.0], [1.0]])
        assert accuracy(net, feats, np.array([0.0, 1.0]), EvalConfig()) == 0.5

    @pytest.mark.parametrize("label", [7, -1, 2.0])
    def test_out_of_range_label_named(self, label):
        """A label outside [0, outputs) is refused by name, not counted as
        a miss."""
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        with pytest.raises(ValueError, match=rf"labels must lie in \[0, 2\); "
                                             rf"label 1 is {label!r}$"):
            accuracy(net, np.ones((2, 1)), np.array([0, label]), EvalConfig())

    @pytest.mark.parametrize("shape", [(1,), (3, 2), (3, 1, 1)])
    def test_features_must_be_a_matrix(self, shape):
        """Features that are not (samples, inputs) are named by their shape
        before the labels are looked at."""
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        with pytest.raises(ValueError, match=rf"features must be a \(samples, "
                                             rf"1\) matrix, got shape "
                                             rf"{re.escape(str(shape))}$"):
            accuracy(net, np.ones(shape), np.zeros(2), EvalConfig())

    def test_empty_dataset_rejected(self):
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        with pytest.raises(ValueError):
            accuracy(net, np.zeros((0, 1)), np.array([]), EvalConfig())


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        net = NetworkSpec(
            (LayerSpec(rng.uniform(-1, 1, (5, 4)), 2.25),
             LayerSpec(rng.uniform(-1, 1, (4, 2)), 1.0)))
        path = tmp_path / "weights.json"
        save_network(net, path)
        back = load_network(path)
        assert back.dims == net.dims
        for a, b in zip(back.layers, net.layers):
            assert a.m_scale == b.m_scale
            assert np.array_equal(a.weights, b.weights)

    def test_save_writes_dims_and_layers_only(self, tmp_path):
        net = NetworkSpec((LayerSpec(np.full((2, 1), 0.5), 1.5),))
        save_network(net, tmp_path / "net.json")
        doc = json.loads((tmp_path / "net.json").read_text())
        assert sorted(doc) == ["dims", "layers"]

    def test_document_with_feature_scaling_loads_the_same(self):
        """A document saved with an input scaling map, as networks once
        were, loads to the network it describes without one."""
        rng = np.random.default_rng(6)
        plain = {"dims": [3, 2, 2],
                 "layers": [{"M": 2.5, "weights": rng.uniform(-1, 1, 6).tolist()},
                            {"M": 1.0, "weights": rng.uniform(-1, 1, 4).tolist()}]}
        old = {**plain, "feature_scaling": {"lo": [0.0, -1.0, 2.0],
                                            "hi": [1.0, 3.0, 5.0]}}
        a, b = network_from_dict(old), network_from_dict(plain)
        assert a.dims == b.dims == (3, 2, 2)
        for la, lb in zip(a.layers, b.layers):
            assert la.m_scale == lb.m_scale
            assert np.array_equal(la.weights, lb.weights)
        x = np.array([0.25, -0.5, 0.75])
        for config in (EvalConfig(), EvalConfig(stream_length=128, seed=3)):
            assert np.array_equal(network_forward(a, x, config, (1,)),
                                  network_forward(b, x, config, (1,)))

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LayerSpec(np.array([[1.5]]), 1.0)
        for shape in ((0, 3), (3, 0), (3,)):
            with pytest.raises(ValueError, match=rf"non-empty 2-D matrix, "
                                                 rf"got shape {re.escape(str(shape))}$"):
                LayerSpec(np.zeros(shape), 1.0)
        with pytest.raises(ValueError):
            LayerSpec(np.array([[0.5]]), 0.5)
        with pytest.raises(ValueError):
            NetworkSpec((LayerSpec(np.zeros((3, 2)), 1.0),
                         LayerSpec(np.zeros((4, 1)), 1.0)))
        for m_scale in (True, np.True_, "2", None, np.array(2.0)):
            with pytest.raises(ValueError, match=rf"M must be a finite real "
                                                 rf"number >= 1, got "
                                                 rf"{re.escape(repr(m_scale))}$"):
                LayerSpec(np.array([[0.5]]), m_scale)
        # a numpy scalar M is kept as a Python float, so it saves as JSON
        layer = LayerSpec(np.array([[0.5]]), np.float32(1.5))
        assert type(layer.m_scale) is float and layer.m_scale == 1.5
        save_network(NetworkSpec((layer,)), tmp_path / "net.json")
        assert load_network(tmp_path / "net.json").layers[0].m_scale == 1.5
        # a malformed document names the entry that is wrong
        layer = {"M": 1.0, "weights": [0.5]}
        for doc, named in (
                ({"dims": 3, "layers": [layer]}, "dims must be a list, got 3"),
                ({"dims": [1, 1], "layers": 5}, "layers must be a list, got 5"),
                ({"dims": [1, 1], "layers": ["x"]},
                 "layer 0 of 1 must be a mapping .* got 'x'"),
                ({"dims": [1, 1], "layers": [{"M": 1.0, "weights": ["a"]}]},
                 "layer 0 of 1: weights must be numbers"),
                ("x", "the network document must be a mapping .* got 'x'"),
                ([1], r"the network document must be a mapping .* got \[1\]")):
            with pytest.raises(ValueError, match=named):
                network_from_dict(doc)

    @pytest.mark.parametrize("m_scale", [float("nan"), float("inf")])
    def test_non_finite_m_rejected(self, m_scale):
        with pytest.raises(ValueError, match=f"got {m_scale!r}"):
            LayerSpec(np.array([[0.5]]), m_scale)

    def test_fraction_m_is_stored_as_a_float(self):
        layer = LayerSpec(np.array([[0.5]]), Fraction(3, 2))
        assert type(layer.m_scale) is float and layer.m_scale == 1.5

    def test_network_needs_a_layer(self):
        with pytest.raises(ValueError, match=r"^a network needs at least one "
                                             r"layer$"):
            NetworkSpec(())

    def test_eval_config_rejects_non_kind(self):
        with pytest.raises(TypeError, match="'normal'"):
            EvalConfig(stream_length=256, sng_kind="normal")

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_eval_config_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be a non-negative "
                                             rf"integer, got {seed!r}"):
            EvalConfig(stream_length=128, seed=seed)

    def test_eval_config_takes_numpy_seed(self):
        net = NetworkSpec((LayerSpec(np.full((2, 1), 0.5), 1.0),))
        x = np.array([0.3, -0.4])
        plain = network_forward(net, x, EvalConfig(stream_length=128, seed=4))
        out = network_forward(net, x, EvalConfig(stream_length=128,
                                                 seed=np.uint32(4)))
        assert np.array_equal(out, plain)

    @pytest.mark.parametrize("key, at", [((-1,), "entry 0 is -1"),
                                         ((0, 2.5), "entry 1 is 2.5")])
    def test_sample_key_entries_named(self, key, at):
        net = NetworkSpec((LayerSpec(np.full((2, 1), 0.5), 1.0),))
        with pytest.raises(ValueError, match=at):
            network_forward(net, np.zeros(2), EvalConfig(stream_length=128),
                            sample_key=key)

    @pytest.mark.parametrize("key", [3, [0], None])
    def test_sample_key_must_be_a_tuple(self, key):
        net = NetworkSpec((LayerSpec(np.full((2, 1), 0.5), 1.0),))
        with pytest.raises(TypeError, match=rf"sample_key must be a tuple .*"
                                            rf"got {re.escape(repr(key))}$"):
            network_forward(net, np.zeros(2), EvalConfig(stream_length=128),
                            sample_key=key)

    @pytest.mark.parametrize("config", [None, 128, SngKind.BMS])
    def test_config_must_be_an_eval_config(self, config):
        net = NetworkSpec((LayerSpec(np.full((2, 1), 0.5), 1.0),))
        message = rf"config must be an EvalConfig, got {re.escape(repr(config))}$"
        with pytest.raises(TypeError, match=message):
            network_forward(net, np.zeros(2), config)
        with pytest.raises(TypeError, match=message):
            accuracy(net, np.zeros((1, 2)), np.zeros(1), config)

    def test_eval_config_lengths(self):
        with pytest.raises(ValueError):
            EvalConfig(stream_length=100)
        EvalConfig(stream_length=512)
        EvalConfig(stream_length=np.int64(512))

    def test_eval_config_names_the_length(self):
        with pytest.raises(ValueError, match="got 300"):
            EvalConfig(stream_length=300)

    @pytest.mark.parametrize("length", [256.0, np.float64(256)],
                             ids=["float", "float64"])
    def test_eval_config_rejects_float_length(self, length):
        """A float equal to an allowed length is refused by name, not
        passed on to fail inside numpy."""
        message = rf"stream_length must be one of \[.*\], got {re.escape(repr(length))}"
        with pytest.raises(ValueError, match=message):
            EvalConfig(stream_length=length)

    def test_layer_messages_name_the_value(self):
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            LayerSpec(np.zeros(3), 1.0)
        w = np.zeros((2, 3))
        w[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"weight \(1, 0\) is nan"):
            LayerSpec(w, 1.0)
        w[1, 0], w[0, 2] = -1.25, 1.5
        with pytest.raises(ValueError, match=r"max \|w\| is 1.5 at \(0, 2\)"):
            LayerSpec(w, 1.0)

    def test_chain_message_names_the_shapes(self):
        with pytest.raises(ValueError, match=r"layer 0 is \(3, 2\) and "
                                             r"layer 1 is \(4, 1\)"):
            NetworkSpec((LayerSpec(np.zeros((3, 2)), 1.0),
                         LayerSpec(np.zeros((4, 1)), 1.0)))

    def test_dims_must_match_the_layer_count(self):
        doc = {"dims": [3, 2, 5], "layers": [{"M": 1.0, "weights": [0.0] * 6}]}
        with pytest.raises(ValueError, match=r"dims \[3, 2, 5\] describe 2 "
                                             "layers, but the document has 1"):
            network_from_dict(doc)

    @pytest.mark.parametrize("path, message", [
        (("dims",), "the network document has no 'dims' entry"),
        (("layers",), "the network document has no 'layers' entry"),
        (("layers", 1, "M"), "layer 1 of 2 has no 'M' entry"),
        (("layers", 0, "weights"), "layer 0 of 2 has no 'weights' entry")])
    def test_missing_key_named(self, path, message):
        doc = {"dims": [2, 2, 1],
               "layers": [{"M": 1.0, "weights": [0.0] * 4},
                          {"M": 2.0, "weights": [0.5, -0.5]}]}
        assert network_from_dict(doc).dims == (2, 2, 1)
        *outer, key = path
        owner = doc
        for step in outer:
            owner = owner[step]
        del owner[key]
        with pytest.raises(ValueError, match=message):
            network_from_dict(doc)

    @pytest.mark.parametrize("dims, at", [([-2, -2], "entry 0 is -2"),
                                          ([2.5, 2], "entry 0 is 2.5"),
                                          ([2, 0], "entry 1 is 0"),
                                          ([2, True], "entry 1 is True")])
    def test_dims_entries_named(self, dims, at):
        doc = {"dims": dims, "layers": [{"M": 1.0, "weights": [0.5, -0.5]}]}
        with pytest.raises(ValueError, match=rf"dims must be integers >= 1; "
                                             rf"dims {at}$"):
            network_from_dict(doc)

    @pytest.mark.parametrize("m_scale", [None, "abc", True, 0.5])
    def test_bad_m_names_the_layer(self, m_scale):
        doc = {"dims": [2, 1, 1],
               "layers": [{"M": 1.0, "weights": [0.5, -0.5]},
                          {"M": m_scale, "weights": [0.5]}]}
        with pytest.raises(ValueError, match=rf"^layer 1 of 2: scaling factor "
                                             rf"M must .*, got "
                                             rf"{re.escape(repr(m_scale))}$"):
            network_from_dict(doc)

    def test_weight_count_must_match_dims(self):
        doc = {"dims": [3, 2, 1],
               "layers": [{"M": 1.0, "weights": [0.0] * 6},
                          {"M": 1.0, "weights": [0.0] * 3}]}
        with pytest.raises(ValueError, match=r"layer 1 of 2 has 3 weights; "
                                             r"dims \[3, 2, 1\] need "
                                             r"2 x 1 = 2"):
            network_from_dict(doc)
        doc["layers"][1]["weights"] = [0.5, -0.5]
        assert network_from_dict(doc).dims == (3, 2, 1)
