"""End-to-end run plumbing shared by the CLI, sweeps and tests.

A RunRecipe is a `training.TrainConfig` that also holds the rest of one
run's knobs: architecture, widths, GroupSum readout and encoder
settings. The defaults follow the desk-scale recipe used throughout the
experiments: a three layer body of width 512, a 200-neuron output layer
under GroupSum(k=2, tau=10), 3 thresholds per feature at full dead-zone
width, and 5,000 Adam steps on batches of 100 under the arch's own loss
(mean squared error for the ternary network, softmax cross-entropy for
the binary baseline).
"""

from __future__ import annotations

import time
import timeit
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import algebra
from . import circuit as circ_mod
from . import data as data_mod
from . import network as net_mod
from . import training as train_mod

DEFAULT_BODY = (512, 512, 512)
DEFAULT_OUTPUT = 200


@dataclass(frozen=True)
class RunRecipe(train_mod.TrainConfig):
    """All knobs of one training run: the training ones it inherits and
    the model's and encoder's."""

    arch: str = "ternary"
    body_widths: tuple[int, ...] = DEFAULT_BODY
    output_neurons: int = DEFAULT_OUTPUT
    k: int = 2
    tau: float = 10.0
    thresholds: int = 3  # K, thresholds per feature (resolution K + 1)
    delta: float = 1.0

    def __post_init__(self):
        # Check every knob now, mostly through the configs a run builds
        # from the recipe, so a bad value fails before any data is read.
        net_mod.arch_spec(self.arch)
        if any(algebra.exact_int(w, f"body_widths[{i}]") < 1
               for i, w in enumerate(self.body_widths)):
            raise ValueError(f"body widths must be >= 1, got {tuple(self.body_widths)}")
        net_mod.GroupSumConfig(k=self.k, tau=self.tau)
        algebra.exact_int(self.output_neurons, "output_neurons")
        if self.output_neurons < 1 or self.output_neurons % self.k:
            raise ValueError(f"output neurons must be a positive multiple of "
                             f"k={self.k}, got {self.output_neurons}")
        data_mod.EncoderConfig(mode=self.arch, thresholds_per_feature=self.thresholds,
                               delta=self.delta, lo=(), hi=())
        super().__post_init__()

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(self.body_widths) + (self.output_neurons,)

    def describe(self) -> dict:
        d = asdict(self)
        d["body_widths"] = list(self.body_widths)
        d["resolution"] = self.thresholds + 1
        d["loss"] = self.loss or net_mod.ARCHS[self.arch].loss
        return d


@dataclass
class RunResult:
    """Everything produced by one end-to-end run."""

    net: object
    circuit: circ_mod.Circuit
    encoder: data_mod.EncoderConfig
    history: list[dict]
    gap: circ_mod.GapReport
    x_test_enc: object
    timings: dict = field(default_factory=dict)


def run_pipeline(train_ds: data_mod.Dataset, test_ds: data_mod.Dataset,
                 recipe: RunRecipe) -> RunResult:
    """Encode, train, harden and report one run. The encoder is fitted
    on the train split."""
    enc = data_mod.fit_encoder(train_ds.features, recipe.thresholds,
                               recipe.delta, mode=recipe.arch)
    x_train = data_mod.encode(train_ds.features, enc)
    x_test = data_mod.encode(test_ds.features, enc)
    net = net_mod.init_network(recipe.widths, enc.encoded_dim, recipe.seed,
                               net_mod.GroupSumConfig(k=recipe.k, tau=recipe.tau),
                               arch=recipe.arch)
    t0 = time.perf_counter()
    net, history = train_mod.train(  # seed + 1: a stream apart from the init draw's
        net, (x_train, train_ds.labels), replace(recipe, seed=recipe.seed + 1),
        eval_data=(x_test, test_ds.labels),
    )
    t1 = time.perf_counter()
    circuit = circ_mod.harden_network(net)
    gap = circ_mod.gap_report(net, circuit, x_test, test_ds.labels)
    t2 = time.perf_counter()
    timings = {
        "train_seconds": t1 - t0,
        "steps_per_second": recipe.steps / (t1 - t0) if t1 > t0 else 0.0,
        "harden_eval_seconds": t2 - t1,
    }
    return RunResult(net=net, circuit=circuit, encoder=enc, history=history,
                     gap=gap, x_test_enc=x_test, timings=timings)


def _bench_arch(arch: str, widths, input_dim: int, batch: int, steps: int,
                warmup: int, seed: int) -> list[float]:
    """Wall seconds of `steps` training steps (backward plus Adam) after
    `warmup` untimed ones, for `tritnet bench`: the default recipe on
    random inputs from the arch's domain, at a mid-schedule lambda."""
    rng = np.random.default_rng(seed)
    n = max(batch * 4, 256)
    y = rng.integers(0, 2, size=n)
    recipe = RunRecipe(arch=arch, steps=1, batch_size=batch)
    net = net_mod.init_network(widths, input_dim, seed,
                               net_mod.GroupSumConfig(recipe.k, recipe.tau), arch=arch)
    lo, hi = net_mod.ARCHS[arch].domain
    x = rng.integers(int(lo), int(hi) + 1, size=(n, input_dim)).astype(float)
    lam = recipe.lambda_max / 4.0
    state = train_mod.AdamState.init(net.params)
    times = []
    for i in range(warmup + steps):
        idx = rng.integers(0, n, size=batch)
        t0 = time.perf_counter()
        _, grads = train_mod.backward(net, x[idx], y[idx], lam, recipe)
        train_mod.adam_step(net.params, grads, state, recipe.lr)
        t1 = time.perf_counter()
        if i >= warmup:
            times.append(t1 - t0)
    return times


def _bench_circuit(arch: str, widths, input_dim: int, calls: int, seed: int) -> dict:
    """`eval_circuit` samples/s of the hardened net `_bench_arch` starts
    from, on random trit rows: the median of `calls` calls at 10^3 rows,
    one call at 10^5. The engine's work is set by the wiring and the
    rows, not by the gates or the input values."""
    rng = np.random.default_rng(seed)
    net = net_mod.init_network(widths, input_dim, seed, arch=arch)
    circuit = circ_mod.harden_network(net)
    rates = {}
    for rows, repeats in ((10**3, calls), (10**5, 1)):
        x = rng.integers(-1, 2, size=(rows, input_dim))
        times = timeit.repeat(lambda: circ_mod.eval_circuit(circuit, x), number=1,
                              repeat=repeats)
        rates[str(rows)] = rows / float(np.median(times))
    return rates
