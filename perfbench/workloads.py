"""The benchmark's workloads, their inputs and their output checks.

Both workloads run the same stages with the same recipe; only the
architecture differs (ternary or binary):

* set-up: write moons files made from the seed, then a short warm-up
  ``tritnet train``;
* phase T: in-process 100-step ``tritnet train`` runs with a fixed
  recipe;
* phase A: ``tritnet eval --selective --diversity --spectral`` of the
  circuit phase T wrote, on a 10^5-row file;
* phase B: a closed loop, one client calling ``circuit.eval_circuit``
  on consecutive 10^3-row batches of that file;
* the yardstick: fixed numpy work that does not call the program
  (perfbench/yardstick.py); its mean time gives the machine speed the
  reported times are scaled by.

Each phase has its own share of the measured time. The phases take
turns through the whole measured window, so a change in machine speed
during a run reaches every phase alike. The set-ups after the first
take their turns in the window as well, so that the set-up time of a
run is a median over the window too, not a figure from its first
seconds.

Checks run outside the timed sections. A failed operation is a train
or eval command that exits non-zero or fails its check, or an
``eval_circuit`` call whose outputs differ from the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import tritnet.algebra as algebra
import tritnet.circuit as circuit_mod
import tritnet.cli as cli
import tritnet.data as data_mod
import tritnet.serialize as serialize
import tritnet.training as training

from . import reference
from .spans import Tracer
from .yardstick import Yardstick

MOONS_NOISE = 0.3

#: The package modules, one per layer of the traced run.
LAYERS = ("algebra", "fourier", "network", "training", "circuit", "data",
          "analysis", "serialize", "pipeline", "cli")


@dataclass(frozen=True)
class Sizes:
    """Recipe, row counts and repetition floors of one benchmark run."""

    body_widths: str = "512,512,512"
    output_neurons: int = 200
    n_points: int = 2500  # moons, split 2000 train / 500 test
    n_train: int = 2000
    batch: int = 100
    eval_every: int = 100
    warmup_steps: int = 5  # set-up training run
    train_steps: int = 100  # phase T
    large_rows: int = 100_000  # phase A file
    small_rows: int = 1_000  # rows per phase B call
    setup_reps: int = 5  # the first before the window, the rest in it
    min_train_reps: int = 5
    min_large_reps: int = 3
    min_small_calls: int = 200  # at least ten calls beyond the p95
    small_burst: int = 20  # phase B calls per turn
    min_yardstick_reps: int = 20
    trace_small_calls: int = 200


FULL = Sizes()
#: Tiny sizes for the benchmark's own tests: every stage and check, in seconds.
SMOKE = Sizes(body_widths="16,16,16", output_neurons=8, n_points=300,
              n_train=240, batch=20, eval_every=5, train_steps=6,
              warmup_steps=2, large_rows=1_000, small_rows=100, setup_reps=2,
              min_train_reps=2, min_large_reps=2, min_small_calls=5,
              small_burst=5, trace_small_calls=5, min_yardstick_reps=2)


#: Workload name -> the architecture it trains and evaluates.
WORKLOADS = {"train-ternary": "ternary", "train-binary": "binary"}

#: Share of --seconds each timed phase measures. Phase T comes first:
#: it writes the circuit phases A and B evaluate.
SHARES = {"train": 0.24, "setup": 0.06, "large": 0.46, "small": 0.18, "yardstick": 0.06}


def moons(n: int, seed: int):
    """Two interleaved half circles with Gaussian noise, balanced labels."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % 2).astype(np.int64)
    t = rng.uniform(0.0, math.pi, size=n)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    x = np.where(y[:, None] == 0, upper, lower)
    return x + rng.normal(0.0, MOONS_NOISE, size=x.shape), y


def write_dataset(path, x, y, seed: int) -> None:
    """Write rows in tritnet's native dataset format (version 1)."""
    meta = json.dumps({"kind": "moons", "n": len(y), "noise": MOONS_NOISE,
                       "seed": seed}, sort_keys=True)
    lines = [f"# tritnet-dataset v1 {meta}"]
    lines += [f"{a!r},{b!r},{int(c)}" for (a, b), c in zip(x.tolist(), y)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


#: Work counters of the traced run: rows given to eval_circuit.
COUNTERS = {"circuit.eval_circuit":
            lambda args, kwargs: _rows(args[1] if len(args) > 1 else kwargs["x"])}


class CheckFailed(Exception):
    pass


class Bench:
    """One workload at one seed: inputs, timed stages and checks."""

    def __init__(self, name: str, sizes: Sizes, seed: int, workdir: str):
        self.arch = WORKLOADS[name]
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.paths = {k: os.path.join(workdir, f"{k}.txt")
                      for k in ("train", "test", "large")}
        self.all_tables = algebra.all_tables()
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.circuit = None
        self.yardstick = Yardstick()

    # ------------------------------------------------------------ helpers

    def _path(self, name: str, suffix: str) -> str:
        return os.path.join(self.workdir, name + suffix)

    def _untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _check(self, what: str, check, *args) -> None:
        """Count one operation and run its check, untraced and untimed."""
        self.attempted += 1
        with self._untraced():
            try:
                check(*args)
            except Exception as exc:  # any defect is a failed operation
                self.failures.append(f"{what}: {exc!r}")

    def _trits(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        return 2 * codes - 1 if self.arch == "binary" else codes

    def _cli(self, argv: list[str]):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                rc = repr(exc)
            wall = time.perf_counter() - t0
        return rc, wall, log.getvalue()

    # ------------------------------------------------------------- stages

    def setup(self) -> float:
        """Write the inputs and run the warm-up training; returns seconds."""
        s = self.sizes
        t0 = time.perf_counter()
        x, y = moons(s.n_points, self.seed)
        write_dataset(self.paths["train"], x[:s.n_train], y[:s.n_train], self.seed)
        write_dataset(self.paths["test"], x[s.n_train:], y[s.n_train:], self.seed)
        xl, yl = moons(s.large_rows, self.seed + 1)
        write_dataset(self.paths["large"], xl, yl, self.seed + 1)
        write_s = time.perf_counter() - t0
        self.test, self.large = (x[s.n_train:], y[s.n_train:]), (xl, yl)
        return write_s + self.train(s.warmup_steps, "setup")

    def train(self, steps: int, name: str) -> float:
        """One in-process `tritnet train`; returns its wall seconds."""
        s = self.sizes
        argv = ["train", "--train", self.paths["train"], "--test", self.paths["test"],
                "--arch", self.arch, "--widths", s.body_widths,
                "--output-neurons", str(s.output_neurons), "--batch", str(s.batch),
                "--eval-every", str(s.eval_every), "--steps", str(steps),
                "--seed", str(self.seed), "--out", self.workdir, "--name", name]
        rc, wall, log = self._cli(argv)
        self._check(f"train {name}", self._check_training, name, steps, rc, log)
        return wall

    def _check_training(self, name, steps, rc, log) -> None:
        if rc != 0:
            raise CheckFailed(f"exit {rc}: {log.strip()[-300:]}")
        with open(self._path(name, ".history.jsonl")) as fh:
            losses = [json.loads(line)["loss"] for line in fh if line.strip()]
        if len(losses) != steps or not all(math.isfinite(v) for v in losses):
            raise CheckFailed(f"history has {len(losses)} rows or a non-finite loss")
        with open(self._path(name, ".manifest.json")) as fh:
            gap = json.load(fh)["gap_report"]
        circ, enc = serialize.load_circuit(self._path(name, ".circuit.txt"))
        x = self._trits(data_mod.encode(self.test[0], enc))
        _, _, preds, _ = reference.reference_eval(circ, x, self.all_tables)
        acc = float((preds == self.test[1]).mean())
        if acc != gap["circuit_accuracy"]:
            raise CheckFailed(f"circuit file accuracy {acc!r} != gap report "
                              f"{gap['circuit_accuracy']!r}")
        if self.arch == "ternary":
            net, _ = serialize.load_checkpoint(self._path(name, ".ckpt"))
            herr = circuit_mod.hardening_error(net)
            commit = training.commitment_loss(net)
            if not abs(herr - commit) <= 1e-12:
                raise CheckFailed(f"hardening error {herr!r} != commitment "
                                  f"loss {commit!r}")

    def prepare_eval(self) -> None:
        """Load the circuit phases A and B run, cut batches, compute references."""
        self.circuit_path = self._path("run", ".circuit.txt")
        with self._untraced():
            self.circuit, enc = serialize.load_circuit(self.circuit_path)
            x = self._trits(data_mod.encode(self.large[0], enc))
            rows = self.sizes.small_rows
            self.batches = [x[i:i + rows] for i in range(0, len(x), rows)]
            self.refs = [reference.reference_eval(self.circuit, b, self.all_tables)
                         for b in self.batches]
        # Trits fit in int8; keeps the references out of the peak memory figure.
        self.refs = [(out.astype(np.int8), *rest) for out, *rest in self.refs]
        outputs, _, preds, margins = (np.concatenate(parts) for parts in zip(*self.refs))
        labels = self.large[1]
        self.ref_large = {
            "accuracy": float((preds == labels).mean()),
            "unknown_fraction": float((outputs == 0).mean()),
            "selective_auc": reference.selective_auc(preds, margins, labels),
        }

    def eval_large(self, _i: int = 0) -> float:
        """Phase A: one in-process `tritnet eval` of the large file."""
        argv = ["eval", "--circuit", self.circuit_path, "--data", self.paths["large"],
                "--selective", "--diversity", "--spectral",
                "--out", self.workdir, "--name", "large"]
        rc, wall, log = self._cli(argv)
        self._check("eval large", self._check_large, rc, log)
        return wall

    def _check_large(self, rc, log) -> None:
        if rc != 0:
            raise CheckFailed(f"exit {rc}: {log.strip()[-300:]}")
        with open(self._path("large", ".manifest.json")) as fh:
            doc = json.load(fh)
        ref = self.ref_large
        if (doc["accuracy"] != ref["accuracy"]
                or doc["unknown_fraction"] != ref["unknown_fraction"]
                or not abs(doc["selective_auc"] - ref["selective_auc"]) <= 1e-12):
            raise CheckFailed(f"manifest {doc['accuracy']!r}, "
                              f"{doc['unknown_fraction']!r}, {doc['selective_auc']!r} "
                              f"differ from reference {ref}")

    def eval_small(self, i: int) -> float:
        """Phase B: one `circuit.eval_circuit` call on batch i (cycling)."""
        j = i % len(self.batches)
        t0 = time.perf_counter()
        try:
            got = circuit_mod.eval_circuit(self.circuit, self.batches[j])
        except Exception as exc:  # a crash is a failed call
            got = exc
        wall = time.perf_counter() - t0
        self._check(f"eval_circuit batch {j}", self._check_small, got, j)
        return wall

    def _check_small(self, got, j) -> None:
        if isinstance(got, Exception):
            raise got
        if len(got) != 4:
            raise CheckFailed(f"expected 4 results, got {len(got)}")
        names = ("outputs", "scores", "predictions", "margins")
        for what, a, b in zip(names, got, self.refs[j]):
            if not np.array_equal(a, b):
                raise CheckFailed(f"{what} differ from the reference")

    # -------------------------------------------------------------- modes

    def run_train(self, _i: int = 0) -> float:
        """Phase T: one `tritnet train` of the workload's architecture."""
        return self.train(self.sizes.train_steps, "run")

    def run_setup(self, _i: int = 0) -> float:
        """One more set-up, taking its turn in the measured window."""
        return self.setup()

    def measure(self, seconds: float) -> dict[str, list[float]]:
        """The timed phases of an untraced run; returns wall seconds per call.

        Each turn goes to the phase furthest behind its share of
        `seconds`, until every phase has its share and its floor of
        repetitions. The "setup" entry holds the set-ups after the first.
        """
        s, shares = self.sizes, SHARES
        ops = {"train": (self.run_train, s.min_train_reps, 1),
               "setup": (self.run_setup, s.setup_reps - 1, 1),
               "large": (self.eval_large, s.min_large_reps, 1),
               "small": (self.eval_small, s.min_small_calls, s.small_burst),
               "yardstick": (lambda _i: self.yardstick.run(), s.min_yardstick_reps, 1)}
        walls: dict[str, list[float]] = {phase: [] for phase in shares}
        while True:
            due = [p for p in shares if len(walls[p]) < ops[p][1]
                   or sum(walls[p]) < shares[p] * seconds]
            if not due:
                return walls
            phase = min(due, key=lambda p: sum(walls[p]) / shares[p])
            if phase in ("large", "small") and self.circuit is None:
                self.prepare_eval()
            op, _, burst = ops[phase]
            for _ in range(burst):
                walls[phase].append(op(len(walls[phase])))

    def one_pass(self) -> float:
        """One fixed-size pass over the timed phases; returns their wall seconds."""
        wall = self.run_train()
        self.prepare_eval()
        wall += self.eval_large()
        wall += sum(self.eval_small(i) for i in range(self.sizes.trace_small_calls))
        return wall

    def traced_passes(self, modules: dict) -> list[dict]:
        """Two traced passes of identical work around one untraced pass.

        The first pass takes any cold-start cost, which then counts
        against tracing rather than in its favour.
        """
        passes = []
        for traced in (True, False, True):
            self.tracer = Tracer(modules, COUNTERS) if traced else None
            with self.tracer or contextlib.nullcontext():
                wall = self.one_pass()
            passes.append({"wall_s": wall, "tracer": self.tracer,
                           "live_neuron_share": reference.live_neuron_share(self.circuit)})
            self.tracer = None
        return passes
