"""Workloads of the mtjsc benchmark: synthetic data, set-up, training,
the measured closed loop, and the checks on every output.

Each workload is one caller in one process: it runs one stream-path sample
(or one `energy_per_bit` evaluation), waits for the result, then runs the
next.  All data is generated from the workload seed, written to files in a
scratch directory and read back through the public loaders, so the program
only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import statistics
import struct
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mtjsc import datasets, device, network, sng, streams, training
from tracing import Tracer

# Set-up and training are repeated before and again after the measured
# loop, each time at least this often and for at least this long, and their
# medians reported, so that neither one slow repetition nor one slow moment
# of a shared host moves the figure.
SETUP_REPEATS, SETUP_SECONDS = 3, 0.5
TRAIN_REPEATS, TRAIN_SECONDS = 2, 1.5

# Blend weight of a second class in each synthetic digit, drawn from
# [0, MNIST_MIX]; above 0.5 some images resemble the wrong class, which keeps
# float accuracy clearly below 1 (about 0.85).
MNIST_MIX = 0.55
MNIST_IMAGES = 1600
MNIST_TRAIN = 1200

# Scale of the per-band shift between the two sonar classes, against a
# per-band noise of 0.1; sized for a float accuracy near 0.85.
SONAR_SEPARATION = 0.0175
SONAR_ROWS = 600
SONAR_TRAIN = 400

# Generator samples per weight in the energy check against generate_stream.
ENERGY_CHECK_STREAMS = 32
ENERGY_CHECK_BITS = 4096
# The mean of ENERGY_CHECK_STREAMS independent per-bit energies must lie
# within this many standard errors of the closed form (two-sided t with 31
# degrees of freedom: a false alarm about once in 50 000 checks).
ENERGY_CHECK_SIGMAS = 5.0

# Length of each traced and each untraced stretch of a traced run.
TRACE_CHUNK_SECONDS = 2.0

TRACE_TARGETS = (
    "device.default_model",
    "device.switching_probability",
    "device.pulse_width_for_probability",
    "device.expected_write_energy",
    "sng.build_cost_model",
    "sng.energy_per_bit",
    "sng.write_probability",
    "streams.fsm_tanh",
    "network.network_forward",
    "network.neuron_forward_isc",
    "training.train_backprop",
    "datasets.load_mnist",
    "datasets.load_csv_dataset",
    "datasets.split_dataset",
    "datasets.downscale_14x14",
    "datasets.fit_scaling",
    "datasets.apply_scaling",
)
MODULES = {"device": device, "sng": sng, "streams": streams,
           "network": network, "training": training, "datasets": datasets}

PER_LAYER_UNITS = {
    "device.default_model_s": "s",
    "device.switching_probability_calls": "count",
    "device.pulse_width_calls": "count",
    "device.pulse_width_s": "s",
    "device.expected_write_energy_calls": "count",
    "device.expected_write_energy_s": "s",
    "sng.build_cost_model_s": "s",
    "sng.energy_per_bit_calls": "count",
    "sng.energy_per_bit_s": "s",
    "sng.quadrature_per_eval": "ratio",
    "sng.write_probability_calls": "count",
    "sng.bits_drawn": "count",
    "streams.fsm_tanh_calls": "count",
    "streams.fsm_tanh_s": "s",
    "streams.fsm_tanh_share": "fraction",
    "network.forward_p50_ms": "ms",
    "network.forward_p90_ms": "ms",
    "network.neuron_isc_calls": "count",
    "network.neuron_isc_self_s": "s",
    "network.layer0.isc_s": "s",
    "network.layer1.isc_s": "s",
    "network.layer0.sng_energy_bms_j": "J",
    "network.layer1.sng_energy_bms_j": "J",
    "network.layer0.sng_energy_normal_j": "J",
    "network.layer1.sng_energy_normal_j": "J",
    "training.epoch_s": "s",
    "training.epochs_accepted": "count",
    "training.final_loss": "value",
    "datasets.load_s": "s",
    "datasets.scale_s": "s",
    "trace.overhead_frac": "fraction",
}


class Ledger:
    """Counts attempted and failed operations; keeps the first error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def attempt(self, fn, *args):
        """Call fn(*args); return (result, seconds), or (None, seconds) if it
        raised or returned a non-finite value.  Only the call is timed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            dt = time.perf_counter() - t0
            self._fail(f"{type(exc).__name__}: {exc}", traceback.format_exc())
            return None, dt
        dt = time.perf_counter() - t0
        if not np.all(np.isfinite(out)):
            self._fail(f"non-finite result of {fn.__name__}: {out!r}", "")
            return None, dt
        return out, dt

    def _fail(self, message: str, trace: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            print(f"operation failed: {message}\n{trace}", file=sys.stderr)


@dataclass
class Report:
    """Everything a run measured, plus the failed checks."""

    lines: list = field(default_factory=list)      # (name, value, unit, kind)
    metrics: dict = field(default_factory=dict)    # name -> (value, unit)
    check_failures: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)  # of sim outputs

    def add(self, name: str, value: float, unit: str, kind: str) -> None:
        self.lines.append((name, value, unit, kind))
        self.metrics[name] = (value, unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)


# ---------------------------------------------------------------- data ---

def mnist_like(rng: np.random.Generator, count: int):
    """28x28 uint8 digit-like images: ten blob-stroke prototypes, each image
    blended with a second class and Gaussian pixel noise."""
    yy, xx = np.mgrid[0:28, 0:28]
    protos = np.zeros((10, 28, 28))
    for proto in protos:
        for _ in range(4):
            cy, cx = rng.uniform(6, 22, 2)
            sy, sx = rng.uniform(1.5, 5, 2)
            proto += np.exp(-((yy - cy) ** 2 / (2 * sy ** 2)
                              + (xx - cx) ** 2 / (2 * sx ** 2)))
        proto /= proto.max()
    labels = rng.integers(0, 10, count)
    other = (labels + rng.integers(1, 10, count)) % 10
    mix = rng.uniform(0, MNIST_MIX, count)[:, None, None]
    imgs = ((1 - mix) * protos[labels] + mix * protos[other]
            + rng.normal(0, 0.25, (count, 28, 28)))
    return (np.clip(np.rint(imgs * 255), 0, 255).astype(np.uint8),
            labels.astype(np.uint8))


def sonar_like(rng: np.random.Generator, count: int):
    """60 band energies in [0, 1] for rocks (R) and mines (M): a shared
    spectrum shifted in opposite directions per class, plus noise."""
    bands = np.arange(60)
    base = 0.3 + 0.2 * np.sin(2 * np.pi * bands / 60 + rng.uniform(0, 2 * np.pi))
    shift = SONAR_SEPARATION * rng.normal(0, 1, 60)
    labels = rng.integers(0, 2, count)
    sign = np.where(labels == 1, 1.0, -1.0)[:, None]
    rows = np.clip(base + sign * shift + rng.normal(0, 0.1, (count, 60)), 0, 1)
    return rows, np.where(labels == 1, "M", "R")


def write_idx(path: Path, magic: int, data: np.ndarray) -> None:
    header = struct.pack(f">{1 + data.ndim}I", magic, *data.shape)
    path.write_bytes(header + data.tobytes())


@dataclass
class Prepared:
    model: object
    cost_model: object
    train: object
    test: object


def prepare_mnist(seed: int, workdir: Path) -> Prepared:
    model = device.default_model()
    cost_model = sng.build_cost_model(model)
    images, labels = mnist_like(np.random.default_rng(seed), MNIST_IMAGES)
    write_idx(workdir / "images.idx3", datasets.IDX_IMAGES_MAGIC, images)
    write_idx(workdir / "labels.idx1", datasets.IDX_LABELS_MAGIC, labels)
    full = datasets.load_mnist(workdir / "images.idx3", workdir / "labels.idx1")
    full = datasets.downscale_14x14(full)
    train, test = datasets.split_dataset(full, MNIST_TRAIN, seed)
    return Prepared(model, cost_model, train, test)


def prepare_sonar(seed: int, workdir: Path) -> Prepared:
    model = device.default_model()
    cost_model = sng.build_cost_model(model)
    rows, labels = sonar_like(np.random.default_rng(seed), SONAR_ROWS)
    with open(workdir / "sonar.csv", "w") as fh:
        for row, label in zip(rows, labels):
            fh.write(",".join(f"{v:.4f}" for v in row) + f",{label}\n")
    full = datasets.load_csv_dataset(workdir / "sonar.csv", datasets.SONAR_SCHEMA)
    train, test = datasets.split_dataset(full, SONAR_TRAIN, seed)
    train = datasets.fit_scaling(train)
    test = datasets.apply_scaling(test, train)
    return Prepared(model, cost_model, train, test)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each was chosen is in BENCHMARK.json."""

    name: str
    dims: tuple
    prepare: object
    train_config: training.TrainConfig
    stream_length: int
    sng_kind: object | None      # None: energy costing, no stream work
    sim_samples: int             # fixed prefix the simulated metrics cover
    check_prefix: int            # prefix re-run through accuracy()


WORKLOADS = {w.name: w for w in (
    Workload(
        "mnist14-isc256",
        (196, 100, 10), prepare_mnist,
        training.TrainConfig(eta=0.1, epochs=30, batch_size=32),
        256, sng.SngKind.BMS, sim_samples=16, check_prefix=4),
    Workload(
        "sonar60-isc1024",
        (60, 20, 2), prepare_sonar,
        training.TrainConfig(eta=0.1, epochs=60, batch_size=16),
        1024, sng.SngKind.NORMAL, sim_samples=100, check_prefix=20),
    Workload(
        "energy-sonar60",
        (60, 20, 2), prepare_sonar,
        training.TrainConfig(eta=0.1, epochs=60, batch_size=16),
        1024, None, sim_samples=16, check_prefix=0),
)}


# ------------------------------------------------------------- phases ---

def repeat_timed(fn, min_repeats: int, min_seconds: float):
    """Call fn() at least min_repeats times and until min_seconds of calls
    have passed; return the results and the per-call times."""
    results, times = [], []
    while len(times) < min_repeats or sum(times) < min_seconds:
        t0 = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t0)
    return results, times


def timed_setup(workload: Workload, seed: int, scratch: Path):
    """Repeat set-up, each time into a fresh directory; return the last
    result and the per-repeat times."""
    results, times = repeat_timed(
        lambda: workload.prepare(seed, Path(tempfile.mkdtemp(dir=scratch))),
        SETUP_REPEATS, SETUP_SECONDS)
    return results[-1], times


def timed_training(workload: Workload, seed: int, prepared: Prepared,
                   report: Report, reference=None):
    """Repeat training plus scaling from one seed; every repeat must give
    the same network as the first (or as `reference`)."""
    config = dataclasses.replace(workload.train_config, seed=seed)

    def once():
        raw = training.train_backprop(workload.dims, prepared.train, config)
        return raw, training.scale_weights(raw)

    results, times = repeat_timed(once, TRAIN_REPEATS, TRAIN_SECONDS)
    raw, net = results[0]
    reference = reference or net
    same = all(np.array_equal(a.weights, b.weights)
               for _, other in results
               for a, b in zip(reference.layers, other.layers))
    report.check(same, "training repeats from one seed gave different weights")
    return net, raw, times


def stream_loop(net, test, config, seconds: float, min_samples: int,
                ledger: Ledger):
    """Closed loop of network_forward calls, keyed exactly as accuracy() keys
    them, until `seconds` have passed and at least `min_samples` are done.
    Returns the outputs of the first `min_samples` calls and the per-call
    times of every completed call."""
    outputs, times = [], []
    start = time.perf_counter()
    done = 0
    while done < min_samples or time.perf_counter() - start < seconds:
        idx = done % len(test)
        out, dt = ledger.attempt(network.network_forward, net,
                                 test.features[idx], config, (idx,))
        if out is not None:
            times.append(dt)
        if done < min_samples:
            outputs.append(out)
        done += 1
    return outputs, times


def energy_pass(net, inputs, model, n: int, ledger: Ledger, times: list):
    """Price one inference per input row, for BMS and NORMAL, from a fresh
    cost model (cold energy_per_bit cache).

    Energy per inference is n times the energy per bit summed over every
    SNG stream network_forward draws: each first-layer input (x+1)/2 and
    each weight (w+1)/2.  The two fair bits per neuron come from an ideal
    RNG and are not priced.  Returns {kind: [layer energies in J]} with the
    input streams' mean cost charged to layer 0.
    """
    cost_model = sng.build_cost_model(model)
    result = {}
    for kind in (sng.SngKind.BMS, sng.SngKind.NORMAL):
        def priced(values) -> float:
            total = 0.0
            for v in values:
                e, dt = ledger.attempt(sng.energy_per_bit, (v + 1.0) / 2.0,
                                       kind, cost_model)
                times.append(dt)
                if e is not None:
                    total += e
            return total

        per_sample_inputs = priced(inputs.ravel()) / inputs.shape[0]
        layers = [n * priced(layer.weights.ravel()) for layer in net.layers]
        layers[0] += n * per_sample_inputs
        result[kind] = [float(e) for e in layers]
    return result


def energy_loop(net, inputs, model, n: int, seconds: float, ledger: Ledger):
    """Closed loop of energy passes until `seconds` have passed (at least
    one).  Every pass must price the network identically."""
    times, results = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(energy_pass(net, inputs, model, n, ledger, times))
    return results, times


# -------------------------------------------------------------- checks ---

def check_stream_outputs(workload: Workload, net, test, config, outputs,
                         report: Report):
    """Checks the stream outputs and returns the simulated metrics."""
    k = workload.sim_samples
    x, y = test.features[:k], test.labels[:k]
    ok = [o for o in outputs if o is not None]
    report.check(len(ok) == k, f"{k - len(ok)} of {k} samples failed")
    for o in ok:
        report.check(bool(np.all(np.isfinite(o)) and np.all(np.abs(o) <= 1.0)),
                     f"stream output outside [-1, 1]: {o!r}")
        report.digest.update(np.asarray(o, dtype=float).tobytes())
    if len(ok) != k:
        return {}
    stream = np.array(outputs)
    floats = np.array([network.network_forward_float(net, xi) for xi in x])
    stream_hits = sum(network.classify(o) == int(label)
                      for o, label in zip(stream, y))
    float_hits = sum(network.classify(o) == int(label)
                     for o, label in zip(floats, y))
    p = workload.check_prefix
    prefix_hits = sum(network.classify(o) == int(label)
                      for o, label in zip(stream[:p], y[:p]))
    reference = network.accuracy(net, x[:p], y[:p], config)
    report.check(prefix_hits / p == reference,
                 f"timed loop hit {prefix_hits}/{p} but accuracy() gives "
                 f"{reference} on the same prefix")
    float_reference = network.accuracy(net, x, y, network.EvalConfig())
    report.check(float_hits / k == float_reference,
                 f"float path hit {float_hits}/{k} but accuracy() gives "
                 f"{float_reference}")
    return {
        "stream_accuracy": (stream_hits / k, "fraction"),
        "float_accuracy": (float_hits / k, "fraction"),
        "stream_float_mae": (float(np.mean(np.abs(stream - floats))), "value"),
    }


def check_energy_against_streams(net, cost_model, seed: int, report: Report):
    """Mean per-bit energy of generate_stream (the exact, bit-by-bit path)
    against the closed-form energy_per_bit, for three weights and both kinds.

    generate_stream charges a reset before every bit but the first whose
    previous write switched, so its expected per-bit energy is
    energy_per_bit - q * reset_energy / n, with q the write probability.
    """
    w = np.sort(net.layers[0].weights.ravel())
    picks = [w[int(f * (w.size - 1))] for f in (0.1, 0.5, 0.9)]
    for kind in (sng.SngKind.BMS, sng.SngKind.NORMAL):
        for wi in picks:
            p = (wi + 1.0) / 2.0
            q = sng.write_probability(p, kind)
            expected = (sng.energy_per_bit(p, kind, cost_model)
                        - q * cost_model.reset_energy / ENERGY_CHECK_BITS)
            per_bit = [sng.generate_stream(p, ENERGY_CHECK_BITS, kind,
                                           (seed, j), cost_model)[1]
                       / ENERGY_CHECK_BITS
                       for j in range(ENERGY_CHECK_STREAMS)]
            mean = statistics.fmean(per_bit)
            stderr = statistics.stdev(per_bit) / ENERGY_CHECK_STREAMS ** 0.5
            report.check(abs(mean - expected) <= ENERGY_CHECK_SIGMAS * stderr,
                         f"{kind.value} p={p:.4f}: generate_stream mean "
                         f"{mean:.6e} J/bit vs energy_per_bit {expected:.6e} "
                         f"(margin {ENERGY_CHECK_SIGMAS} x {stderr:.2e})")


def energy_metrics(passes, net, cost_model, n: int, seed: int,
                   report: Report):
    """Checks the energy passes and returns the simulated metrics."""
    energies = passes[0]
    report.check(all(p == energies for p in passes),
                 "energy passes of one network disagree")
    sim = {}
    for kind in (sng.SngKind.BMS, sng.SngKind.NORMAL):
        report.digest.update(np.array(energies[kind]).tobytes())
        sim[f"sng_energy_{kind.value}_j"] = (sum(energies[kind]), "J")
        sim[f"sng_latency_{kind.value}_s"] = (
            n * sng.bit_period(kind, cost_model), "s")
    check_energy_against_streams(net, cost_model, seed, report)
    return sim


# ----------------------------------------------------------- per layer ---

def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(workload: Workload, phases: dict, setup_reps: int,
                      train_reps: int, units: int, raw, energies,
                      untraced_rate: float, traced_rate: float) -> dict:
    """Per-layer figures from the traced phases.

    Set-up functions are per set-up, training per training run, and the
    hot-path functions per measured unit: one sample on the stream
    workloads, one energy pass on the energy workload.  A function the
    workload does not call reads 0; one the package no longer has is absent.
    """
    setup, train, measure = phases["setup"], phases["train"], phases["measure"]
    present = {t for t in TRACE_TARGETS
               if hasattr(MODULES[t.split(".")[0]], t.split(".")[1])}
    out = {}

    def calls(phase, target, per):
        st = phase.get(target)
        return (st.calls if st else 0) / per

    def seconds(phase, target, per, self_time=False):
        st = phase.get(target)
        if not st:
            return 0.0
        return (st.self_s if self_time else st.total_s) / per

    def put(name, target, value):
        if all(t in present for t in target.split("+")):
            out[name] = value

    all_phases = (setup, train, measure)

    def mean_call_s(target):
        n = sum(calls(ph, target, 1) for ph in all_phases)
        total = sum(seconds(ph, target, 1) for ph in all_phases)
        return total / n if n else 0.0

    put("device.default_model_s", "device.default_model",
        mean_call_s("device.default_model"))
    put("sng.build_cost_model_s", "sng.build_cost_model",
        mean_call_s("sng.build_cost_model"))
    loaders = ("datasets.load_mnist", "datasets.load_csv_dataset",
               "datasets.split_dataset")
    scalers = ("datasets.downscale_14x14", "datasets.fit_scaling",
               "datasets.apply_scaling")
    put("datasets.load_s", "+".join(loaders),
        sum(seconds(setup, t, setup_reps) for t in loaders))
    put("datasets.scale_s", "+".join(scalers),
        sum(seconds(setup, t, setup_reps) for t in scalers))

    for name, target in (
            ("device.switching_probability_calls", "device.switching_probability"),
            ("device.pulse_width_calls", "device.pulse_width_for_probability"),
            ("device.expected_write_energy_calls", "device.expected_write_energy"),
            ("sng.energy_per_bit_calls", "sng.energy_per_bit"),
            ("sng.write_probability_calls", "sng.write_probability"),
            ("streams.fsm_tanh_calls", "streams.fsm_tanh"),
            ("network.neuron_isc_calls", "network.neuron_forward_isc")):
        put(name, target, calls(measure, target, units))
    for name, target in (
            ("device.pulse_width_s", "device.pulse_width_for_probability"),
            ("device.expected_write_energy_s", "device.expected_write_energy"),
            ("sng.energy_per_bit_s", "sng.energy_per_bit"),
            ("streams.fsm_tanh_s", "streams.fsm_tanh")):
        put(name, target, seconds(measure, target, units))

    evals = calls(measure, "sng.energy_per_bit", 1)
    put("sng.quadrature_per_eval",
        "device.expected_write_energy+sng.energy_per_bit",
        calls(measure, "device.expected_write_energy", 1) / evals if evals else 0.0)
    n = workload.stream_length if workload.sng_kind is not None else 0
    put("sng.bits_drawn", "sng.write_probability",
        calls(measure, "sng.write_probability", units) * n)

    forward = measure.get("network.network_forward")
    forward_s = forward.total_s if forward else 0.0
    put("streams.fsm_tanh_share", "streams.fsm_tanh+network.network_forward",
        seconds(measure, "streams.fsm_tanh", 1) / forward_s if forward_s else 0.0)
    forward_ms = [dt * 1e3 for _, dt in forward.durations] if forward else []
    put("network.forward_p50_ms", "network.network_forward",
        _percentile(forward_ms, 50))
    put("network.forward_p90_ms", "network.network_forward",
        _percentile(forward_ms, 90))
    put("network.neuron_isc_self_s", "network.neuron_forward_isc",
        seconds(measure, "network.neuron_forward_isc", units, self_time=True))

    # Neuron calls of one sample come layer by layer, so the k-th call of a
    # sample belongs to the layer whose cumulative width first exceeds k.
    neuron = measure.get("network.neuron_forward_isc")
    bounds = np.cumsum(workload.dims[1:])
    layer_s = [0.0] * len(bounds)
    if neuron:
        order, last_root = 0, None
        for root, dt in neuron.durations:
            order = order + 1 if root == last_root else 0
            last_root = root
            layer_s[int(np.searchsorted(bounds, order, side="right"))] += dt
    for k, total in enumerate(layer_s):
        put(f"network.layer{k}.isc_s", "network.neuron_forward_isc",
            total / units)

    for kind in (sng.SngKind.BMS, sng.SngKind.NORMAL):
        for k in range(len(workload.dims) - 1):
            value = energies[kind][k] if energies else 0.0
            out[f"network.layer{k}.sng_energy_{kind.value}_j"] = value

    train_s = seconds(train, "training.train_backprop", train_reps)
    history = raw.history
    put("training.epoch_s", "training.train_backprop",
        train_s / len(history) if history else 0.0)
    # A rolled-back epoch halves eta, so an accepted one keeps it.
    accepted, eta = 0, workload.train_config.eta
    for record in history:
        accepted += record["eta"] == eta
        eta = record["eta"]
    out["training.epochs_accepted"] = accepted
    out["training.final_loss"] = history[-1]["loss"] if history else 0.0
    out["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0
                                  if traced_rate else 0.0)
    return out


# ----------------------------------------------------------------- run ---

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        scratch_parent: Path):
    """Run one workload; return (report, ledger)."""
    report = Report()
    ledger = Ledger()
    tracer = Tracer(MODULES, TRACE_TARGETS,
                    keep_durations=frozenset({"network.network_forward",
                                              "network.neuron_forward_isc"}))
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=scratch_parent) as tmp:
        scratch = Path(tmp)
        with tracer.installed(traced):
            prepared, setup_times = timed_setup(workload, seed, scratch)
            phases = {"setup": tracer.take()}
            traced_setups = len(setup_times)
            net, raw, train_times = timed_training(workload, seed, prepared,
                                                   report)
            phases["train"] = tracer.take()
            traced_trainings = len(train_times)

        stream = workload.sng_kind is not None
        n = workload.stream_length
        config = network.EvalConfig(stream_length=n, seed=seed,
                                    sng_kind=workload.sng_kind) if stream else None
        inputs = prepared.test.features[:workload.sim_samples]

        def measure(seconds, min_samples):
            """Returns the per-op times as a (units, ops per unit) array,
            a unit being one sample or one energy pass, and the simulated
            results of the units."""
            if stream:
                outputs, times = stream_loop(net, prepared.test, config,
                                             seconds, min_samples, ledger)
                return np.array(times)[:, None], outputs
            results, times = energy_loop(net, inputs, prepared.model, n,
                                         seconds, ledger)
            return np.array(times).reshape(len(results), -1), results

        # Untraced; at least the samples the simulated metrics cover.
        times, sim_results = measure(0.0 if traced else seconds,
                                     workload.sim_samples)
        traced_rate, units = 0.0, 1
        if traced:
            # Traced and untraced chunks alternate, so that both meet the
            # same conditions on the shared host; their rates give the
            # tracing overhead.
            untraced, traced_parts = [times], []
            end = time.perf_counter() + seconds
            while not traced_parts or time.perf_counter() < end:
                with tracer.installed(True):
                    traced_parts.append(measure(TRACE_CHUNK_SECONDS, 1)[0])
                untraced.append(measure(TRACE_CHUNK_SECONDS, 1)[0])
            phases["measure"] = tracer.take()
            times = np.concatenate(untraced)
            traced_times = np.concatenate(traced_parts)
            traced_rate = float(traced_times.size / traced_times.sum())
            units = traced_times.shape[0]
        rate = float(times.size / times.sum())
        # Every unit repeats the same operations, so the fastest time each
        # operation took over the run is its cost with the least interference
        # from other tenants of the host (the timeit rule of the minimum).
        best_rate = float(times.shape[1] / times.min(axis=0).sum())

        energies = None
        if stream:
            sim = check_stream_outputs(workload, net, prepared.test, config,
                                       sim_results, report)
        else:
            energies = sim_results[0]
            sim = energy_metrics(sim_results, net, prepared.cost_model, n,
                                 seed, report)

        # The other half of the set-up and training repeats runs after the
        # measured loop, so that their medians span the run rather than one
        # moment of a shared host.
        setup_times += timed_setup(workload, seed, scratch)[1]
        train_times += timed_training(workload, seed, prepared, report,
                                      reference=net)[2]

    report.add("setup_s", statistics.median(setup_times), "s", "host")
    report.add("train_s", statistics.median(train_times), "s", "host")
    ops = "stream_samples_per_s" if stream else "energy_evals_per_s"
    report.add(ops, rate, "1/s", "host")
    report.add("best_ops_per_s", best_rate, "1/s", "host")
    report.add("op_count", times.size, "count", "host")
    report.add("op_p50_ms", _percentile(times, 50) * 1e3, "ms", "host")
    report.add("op_p90_ms", _percentile(times, 90) * 1e3, "ms", "host")
    for name, (value, unit) in sim.items():
        report.add(name, value, unit, "sim")
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "host")
    report.add("failed_frac", ledger.failed / max(ledger.attempted, 1),
               "fraction", "host")

    if traced:
        layer = per_layer_metrics(workload, phases, traced_setups,
                                  traced_trainings, units, raw, energies,
                                  rate, traced_rate)
        for name, value in layer.items():
            unit = PER_LAYER_UNITS[name]
            kind = "count" if unit in ("count", "ratio") else (
                "sim" if unit in ("J", "value") else "host")
            report.add(name, value, unit, kind)
    return report, ledger
