"""Tests for float and stream-domain network evaluation."""

import gc
import math
import multiprocessing
import queue
import threading
import weakref

import numpy as np
import pytest

from mtjsc import network
from mtjsc.network import (
    INPUT_SECOND_MOMENT,
    EvalConfig,
    LayerSpec,
    NetworkSpec,
    accuracy,
    child_seed,
    classify,
    layer_forward_isc,
    load_network,
    network_forward,
    network_forward_float,
    network_from_dict,
    neuron_forward_float,
    neuron_forward_isc,
    save_network,
    weight_sum_offset,
)
from mtjsc.sng import SngKind, sng_bits
from mtjsc.streams import (
    Format,
    IntegralStream,
    StochasticStream,
    default_tanh_states,
    fsm_tanh,
    value_of,
)


def bip_stream(v, n, seed):
    rng = np.random.default_rng(seed)
    return StochasticStream((rng.random(n) < (v + 1) / 2).astype(np.uint8),
                            Format.BIPOLAR)


class TestFloatNeuron:
    def test_cancellation(self):
        a, t = neuron_forward_float([1.0, -1.0], [1.0, 1.0], 2.0)
        assert a == 0.0 and t == 0.0

    def test_single_weight(self):
        a, t = neuron_forward_float([0.5], [1.0], 2.0)
        assert a == pytest.approx(1.0)
        assert t == pytest.approx(math.tanh(1.0))

    def test_zero_weights(self):
        a, t = neuron_forward_float(np.zeros(5), np.ones(5), 3.0)
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
            a, _ = neuron_forward_float(w, x, m)
            direct = np.sum((m * w) * ((x + 1) / 2))
            assert a == pytest.approx(direct, abs=1e-12)


class TestIscNeuron:
    def test_cancellation_statistical(self):
        """w = (1, -1) on all-ones inputs averages to 0 over 48 seeds.

        Bound 0.05; the mean reads -0.0002, and a 48-seed mean has a sigma
        of about 0.009, so the margin is over five sigma.
        """
        ones = StochasticStream(np.ones(512, dtype=np.uint8), Format.BIPOLAR)
        vals = []
        for s in range(48):
            rng = child_seed(s, 1)
            out = neuron_forward_isc(np.array([1.0, -1.0]), [ones, ones], 2.0,
                                     EvalConfig(stream_length=512), rng)
            vals.append(value_of(out))
        assert abs(np.mean(vals)) <= 0.05

    def test_zero_weights_statistical(self):
        """Zero weights on zero-valued inputs average to 0 over 48 seeds.

        Bound 0.05; the mean reads 0.037, and a 48-seed mean has a sigma of
        about 0.024, so this is the tight one.  Over 600 fresh seeds the
        bias is 0.003 +- 0.006: the 0.037 is a fluctuation of these seeds,
        not a bias.  If a change pushes it past 0.05, measure the bias over
        fresh seeds before anything else; the bound stays.
        """
        cfg = EvalConfig(stream_length=512)
        vals = []
        for s in range(48):
            rng = child_seed(100 + s, 1)
            xs = [bip_stream(0.0, 512, 500 + 8 * s + i) for i in range(8)]
            vals.append(value_of(neuron_forward_isc(np.zeros(8), xs, 2.0, cfg, rng)))
        assert abs(np.mean(vals)) <= 0.05

    def test_tracks_float_reference(self):
        """Mean |delta t| across random 8-input neurons stays within 0.08.

        The mean reads 0.060 (per trial: bias -0.008, sigma 0.090, so the
        100-trial mean of |delta t| has a sigma near 0.006).  Ten disjoint
        100-trial sets under this construction read 0.049-0.062.
        """
        cfg = EvalConfig(stream_length=512)
        errs = []
        for trial in range(100):
            rng = np.random.default_rng(trial)
            w = rng.uniform(-1, 1, 8)
            x = rng.uniform(-1, 1, 8)
            _, t_ref = neuron_forward_float(w, x, 2.0)
            srng = child_seed(trial, 2)
            xs = [bip_stream(xi, 512, 900 + 16 * trial + i)
                  for i, xi in enumerate(x)]
            errs.append(abs(value_of(
                neuron_forward_isc(w, xs, 2.0, cfg, srng)) - t_ref))
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
        ones = StochasticStream(np.ones(256, dtype=np.uint8), Format.BIPOLAR)
        out = neuron_forward_isc(np.full(7, sign), [ones] * 7, 1.0,
                                 EvalConfig(stream_length=256), child_seed(0))
        assert value_of(out) * sign > 0.9

    def test_stream_length_mismatch(self):
        xs = [bip_stream(0.0, 128, 1), bip_stream(0.0, 256, 2)]
        with pytest.raises(ValueError):
            neuron_forward_isc(np.zeros(2), xs, 1.0, EvalConfig(stream_length=128),
                               child_seed(0))


def reference_fair_bits(n, rng):
    """n fair bits, one Python int at a time: word k of the generator's raw
    output gives the 16-bit uniforms 4k..4k+3 from its low bits up, and a
    bit is 1 where the uniform is below 2**15."""
    words = rng.bit_generator.random_raw(-(-n // 4))
    uniforms = [(int(word) >> (16 * k)) & 0xFFFF
                for word in words for k in range(4)][:n]
    return np.array([u < 1 << 15 for u in uniforms], dtype=np.int64)


def reference_neuron(w, x_bits, m_scale, kind, rng):
    """One neuron, one sng_bits call per input, then two fair-bit rows."""
    n_inputs, n = len(w), len(x_bits[0])
    levels = weight_sum_offset(w.sum(), n_inputs, n)
    for wi, xb in zip(w, x_bits):
        wb = sng_bits((wi + 1.0) / 2.0, n, kind, rng)[0]
        levels = levels + (1 - (wb ^ xb))
    levels = levels + reference_fair_bits(n, rng) + reference_fair_bits(n, rng)
    summed = IntegralStream(levels, n_inputs + 2 * ((n_inputs + 1) // 2) + 2,
                            Format.BIPOLAR)
    gain = m_scale * (1.0 - np.mean(w * w) * INPUT_SECOND_MOMENT)
    return fsm_tanh(summed, default_tanh_states(n_inputs, gain)).bits


def reference_forward(net, x, config, sample_key):
    """The stream path sample by sample, neuron by neuron, input by input."""
    n, kind = config.stream_length, config.sng_kind
    rng = child_seed(config.seed, 7, *sample_key)
    bits = [sng_bits((xi + 1.0) / 2.0, n, kind, rng)[0]
            for xi in np.clip(x, -1.0, 1.0)]
    for layer in net.layers:
        bits = [reference_neuron(layer.weights[:, j], bits, layer.m_scale,
                                 kind, rng)
                for j in range(layer.weights.shape[1])]
    return np.array([(2 * int(b.sum()) - n) / n for b in bits])


class TestLayerKernel:
    """The batched stream path against the per-input reference, exactly."""

    def small_net(self):
        rng = np.random.default_rng(6)
        return NetworkSpec((LayerSpec(rng.uniform(-1, 1, (9, 5)), 2.5),
                            LayerSpec(rng.uniform(-1, 1, (5, 3)), 1.5)))

    def split_kernel(self, monkeypatch, parts):
        """Run layers in `parts` parts where they have that many blocks:
        at DRAW_BLOCK = 2 * 11 * 32 words, two of small_net's first-layer
        neurons (11 rows of 32 words at n = 128) share a block."""
        monkeypatch.setattr(network, "_usable_cpus", lambda: parts)
        monkeypatch.setattr(network, "DRAW_BLOCK", 2 * 11 * 32)

    def layer_inputs(self):
        return np.stack([bip_stream(0.2 * i - 0.8, 128, 60 + i).bits
                         for i in range(9)])

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
        # each part count on every draw block; a count above a layer's
        # block count runs one part per block
        for parts in (1, 2, 3):
            monkeypatch.setattr(network, "_usable_cpus", lambda: parts)
            rng = np.random.default_rng(7)
            for trial in range(4):
                x = rng.uniform(-1.2, 1.2, 9)
                cfg = EvalConfig(stream_length=128, seed=trial, sng_kind=kind)
                out = network_forward(net, x, cfg, sample_key=(trial,))
                assert np.array_equal(
                    out, reference_forward(net, x, cfg, (trial,))), parts

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_caller_generator_ends_after_the_layer(self, parts, monkeypatch):
        """The caller's generator ends where serial draws end, and keeps
        the 32-bit half that a float32 draw buffered."""
        self.split_kernel(monkeypatch, parts)
        layer = self.small_net().layers[0]
        x_bits = self.layer_inputs()
        rng, ref = child_seed(4), child_seed(4)
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
        out = layer_forward_isc(layer, x_bits, SngKind.BMS, rng)
        expect = [reference_neuron(layer.weights[:, j], x_bits, layer.m_scale,
                                   SngKind.BMS, ref) for j in range(5)]
        assert np.array_equal(out, np.stack(expect))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_failed_part_still_positions_the_caller(self, monkeypatch):
        """An error in one part surfaces after every part has joined, with
        the caller's generator where the serial draws end."""
        self.split_kernel(monkeypatch, 2)
        layer = self.small_net().layers[0]
        x_bits = self.layer_inputs()
        part_levels = network._part_levels

        def first_part_fails(plan, bits, rng, lo, hi, block):
            levels = part_levels(plan, bits, rng, lo, hi, block)
            if lo == 0:
                raise RuntimeError("first part failed")
            return levels

        monkeypatch.setattr(network, "_part_levels", first_part_fails)
        rng, ref = child_seed(4), child_seed(4)
        with pytest.raises(RuntimeError, match="first part failed"):
            layer_forward_isc(layer, x_bits, SngKind.BMS, rng)
        for j in range(5):
            reference_neuron(layer.weights[:, j], x_bits, layer.m_scale,
                             SngKind.BMS, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    # PCG64DXSM splits like PCG64; the others run in one part
    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64,
        np.random.Philox], ids=lambda cls: cls.__name__)
    def test_other_bit_generators_match_reference(self, bit_generator,
                                                  monkeypatch):
        self.split_kernel(monkeypatch, 2)
        layer = self.small_net().layers[0]
        x_bits = self.layer_inputs()
        rng = np.random.Generator(bit_generator(9))
        ref = np.random.Generator(bit_generator(9))
        out = layer_forward_isc(layer, x_bits, SngKind.NORMAL, rng)
        expect = [reference_neuron(layer.weights[:, j], x_bits, layer.m_scale,
                                   SngKind.NORMAL, ref) for j in range(5)]
        assert np.array_equal(out, np.stack(expect))
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()

    def test_plans_stay_with_their_layer(self, monkeypatch):
        """Layers built and freed in a loop each get their own plan, and no
        plan keeps its layer alive."""
        self.split_kernel(monkeypatch, 2)
        x_bits = self.layer_inputs()
        weights = np.random.default_rng(10).uniform(-1, 1, (6, 9, 5))
        refs = []
        for trial, w in enumerate(weights):
            layer = LayerSpec(w, 1.5)
            out = layer_forward_isc(layer, x_bits, SngKind.BMS,
                                    child_seed(trial))
            ref_rng = child_seed(trial)
            expect = [reference_neuron(w[:, j], x_bits, 1.5, SngKind.BMS,
                                       ref_rng) for j in range(5)]
            assert np.array_equal(out, np.stack(expect))
            assert list(layer._plans) == [(SngKind.BMS, 128)]
            refs.append(weakref.ref(layer))
            del layer
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_after_the_pool_ran(self, monkeypatch):
        """A child forked after the worker threads ran gets its own."""
        self.split_kernel(monkeypatch, 2)
        net = self.small_net()
        x = np.linspace(-0.9, 0.9, 9)
        cfg = EvalConfig(stream_length=128, seed=5)
        expect = network_forward(net, x, cfg, sample_key=(0,))
        assert any(t.name.startswith("mtjsc-layer")
                   for t in threading.enumerate())
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(
            network_forward(net, x, cfg, sample_key=(0,))))
        child.start()
        try:
            out = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("the forked child returned nothing within 60 s")
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert np.array_equal(out, expect)

    def test_one_dimensional_inputs_named(self):
        layer = LayerSpec(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match=r"got shape \(128,\)"):
            layer_forward_isc(layer, np.zeros(128, dtype=np.uint8),
                              SngKind.BMS, child_seed(0))

    def test_fan_in_mismatch(self):
        layer = LayerSpec(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match="1 input streams"):
            layer_forward_isc(layer, np.zeros((1, 128), dtype=np.uint8),
                              SngKind.BMS, child_seed(0))

    @pytest.mark.parametrize("kind", [SngKind.BMS, SngKind.NORMAL])
    def test_neuron_wrapper_matches_reference(self, kind):
        w = np.random.default_rng(8).uniform(-1, 1, 6)
        xs = [bip_stream(0.3 * i - 0.8, 256, 40 + i) for i in range(6)]
        cfg = EvalConfig(stream_length=256, sng_kind=kind)
        out = neuron_forward_isc(w, xs, 2.0, cfg, child_seed(3))
        ref = reference_neuron(w, [s.bits for s in xs], 2.0, kind,
                               child_seed(3))
        assert out.format is Format.BIPOLAR
        assert np.array_equal(out.bits, ref)


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

    def test_dimension_mismatch(self):
        net = self.net_1layer(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            network_forward(net, np.zeros(3), EvalConfig())

    @pytest.mark.parametrize("stream_length", [None, 128])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, stream_length, bad):
        """Both paths name the first non-finite input and its value."""
        net = self.net_1layer(np.full((4, 2), 0.5))
        x = np.array([0.1, bad, 0.2, bad])
        with pytest.raises(ValueError, match=f"input 1 is {bad}"):
            network_forward(net, x, EvalConfig(stream_length=stream_length))


class TestGolden:
    """Pinned stream outputs of a tiny net: a change to the draw order, the
    word layout or the threshold quantization fails here.

    Away from p = 1/2 both kinds map p to the same threshold and flip (BMS
    writes min(p, 1 - p), NORMAL 1 - p), so they deliver the same bits from
    the same uniforms and share the pinned outputs; the float outputs are
    0.671, 0.248 and 0.018.
    """

    NET = NetworkSpec((
        LayerSpec(np.array([[0.5, -0.25, 1.0],
                            [-0.75, 0.125, -1.0],
                            [0.3, 0.9, -0.6],
                            [0.0, -0.4, 0.2]]), 2.0),
        LayerSpec(np.array([[0.6, -0.7, 0.05],
                            [-0.2, 0.8, -0.35],
                            [0.45, 0.1, 0.7]]), 1.5)))
    X = np.array([0.8, -0.3, 1.4, -0.05])

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

    def test_empty_dataset_rejected(self):
        net = NetworkSpec((LayerSpec(np.array([[1.0, -1.0]]), 1.0),))
        with pytest.raises(ValueError):
            accuracy(net, np.zeros((0, 1)), np.array([]), EvalConfig())


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        net = NetworkSpec(
            (LayerSpec(rng.uniform(-1, 1, (5, 4)), 2.25),
             LayerSpec(rng.uniform(-1, 1, (4, 2)), 1.0)),
            feature_scaling=(rng.uniform(-3, 0, 5), rng.uniform(1, 4, 5)))
        path = tmp_path / "weights.json"
        save_network(net, path)
        back = load_network(path)
        assert back.dims == net.dims
        for a, b in zip(back.layers, net.layers):
            assert a.m_scale == b.m_scale
            assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(back.feature_scaling[0], net.feature_scaling[0])
        assert np.array_equal(back.feature_scaling[1], net.feature_scaling[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(np.array([[1.5]]), 1.0)
        with pytest.raises(ValueError):
            LayerSpec(np.array([[0.5]]), 0.5)
        with pytest.raises(ValueError):
            NetworkSpec((LayerSpec(np.zeros((3, 2)), 1.0),
                         LayerSpec(np.zeros((4, 1)), 1.0)))

    @pytest.mark.parametrize("m_scale", [float("nan"), float("inf")])
    def test_non_finite_m_rejected(self, m_scale):
        with pytest.raises(ValueError, match=f"got {m_scale!r}"):
            LayerSpec(np.array([[0.5]]), m_scale)

    def test_eval_config_rejects_non_kind(self):
        with pytest.raises(TypeError, match="'normal'"):
            EvalConfig(stream_length=256, sng_kind="normal")

    def test_eval_config_lengths(self):
        with pytest.raises(ValueError):
            EvalConfig(stream_length=100)
        EvalConfig(stream_length=512)

    def test_eval_config_names_the_length(self):
        with pytest.raises(ValueError, match="got 300"):
            EvalConfig(stream_length=300)

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

    def test_feature_scaling_shapes_must_match_the_inputs(self):
        doc = {"dims": [2, 1], "layers": [{"M": 1.0, "weights": [0.5, -0.5]}],
               "feature_scaling": {"lo": [0.0, 1.0, 2.0], "hi": [3.0, 4.0]}}
        with pytest.raises(ValueError, match=r"shape \(2,\); got \(3,\) and "
                                             r"\(2,\)"):
            network_from_dict(doc)
        doc["feature_scaling"]["hi"] = [[3.0, 4.0]]
        doc["feature_scaling"]["lo"] = [0.0, 1.0]
        with pytest.raises(ValueError, match=r"shape \(2,\); got \(2,\) and "
                                             r"\(1, 2\)"):
            network_from_dict(doc)
        with pytest.raises(ValueError, match=r"a \(lo, hi\) pair, got 1"):
            NetworkSpec((LayerSpec(np.zeros((2, 1)), 1.0),),
                        feature_scaling=(np.zeros(2),))

    def test_feature_scaling_must_be_finite(self):
        doc = {"dims": [2, 1], "layers": [{"M": 1.0, "weights": [0.5, -0.5]}],
               "feature_scaling": {"lo": [0.0, 1.0], "hi": [3.0, float("nan")]}}
        with pytest.raises(ValueError, match=r"hi\[1\] is nan"):
            network_from_dict(doc)
        doc["feature_scaling"]["lo"] = [float("-inf"), 1.0]
        with pytest.raises(ValueError, match=r"lo\[0\] is -inf"):
            network_from_dict(doc)

    def test_dims_must_match_the_layer_count(self):
        doc = {"dims": [3, 2, 5], "layers": [{"M": 1.0, "weights": [0.0] * 6}]}
        with pytest.raises(ValueError, match=r"dims \[3, 2, 5\] describe 2 "
                                             "layers, but the document has 1"):
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
