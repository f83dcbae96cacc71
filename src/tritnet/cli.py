"""Command-line interface.

Subcommands cover the whole workflow: gen-data, train, harden, eval,
sweep and bench. Every command writes a JSON manifest next to its
outputs recording the effective configuration, seeds, the behavioral
decision flags, artifact hashes and timings, so any run can be
reproduced by feeding the manifest back through --config.

Exit codes: 0 success, 1 usage error, 2 data or file format error,
3 numerical failure during training.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import sys
import time

import numpy as np

from . import algebra as al
from . import analysis as an
from . import circuit as cc
from . import data as dt
from . import network as nw
from . import pipeline as pl
from . import serialize as sz
from . import training as tr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Flags that do not change what a command computes: manifests leave them
# out and --config does not set them.
_NOT_CONFIG = ("command", "fn", "help", "out", "name", "config", "force")


class UsageError(ValueError):
    """Bad flag combination or value, reported as exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("TRITNET_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad {kind.__name__} list {text!r}") from None


def _parse_widths(text: str) -> tuple[int, ...]:
    """The type of --widths: comma-separated positive integers."""
    try:
        widths = tuple(int(v) for v in text.split(","))
        if all(w >= 1 for w in widths):
            return widths
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"widths must be comma-separated positive integers, got {text!r}")


def _load_any_dataset(path, k: int, d: int | None = None) -> dt.Dataset:
    """Read a native or CSV dataset file (`serialize.load_dataset`) whose
    labels must name one of the k classes and, if d is given, with d features."""
    ds = sz.load_dataset(path)
    if d is not None and ds.d != d:
        raise dt.DataFormatError(f"{path}: {ds.d} feature columns, expected {d}")
    if ds.labels.max() >= k:
        raise dt.DataFormatError(f"{path}: label {ds.labels.max()} is out of range "
                                 f"for k={k} classes (labels 0..{k - 1})")
    return ds


def _check_encoder(source, encoder, model) -> None:
    """Reject an encoder from `source` that does not give `model`'s inputs."""
    if encoder and (encoder.mode != model.arch or encoder.encoded_dim != model.input_dim):
        raise dt.DataFormatError(
            f"{source}: its {encoder.mode} encoder gives {encoder.encoded_dim} "
            f"inputs, the {model.arch} model takes {model.input_dim}")


def _check_encoded_width(thresholds: int, features: int) -> None:
    """Refuse K thresholds per feature that give a network under 2 inputs."""
    if thresholds * features < 2:
        raise UsageError(f"K={thresholds} thresholds per feature on {features} feature(s) "
                         f"give {thresholds * features} input; a network needs at least 2")


def _encoded_data(data, source, encoder, model):
    """The dataset at `data` and its codes for `model`, a network or
    circuit read from `source` with an encoder that must fit it."""
    if encoder is None:
        raise UsageError(f"{source} has no encoder; cannot encode raw data")
    _check_encoder(source, encoder, model)
    ds = _load_any_dataset(data, model.groupsum.k, len(encoder.lo))
    return ds, dt.encode(ds.features, encoder)


def _neuron_counts(conn) -> dict:
    """Per-layer widths and counts of the neurons with a path to the output."""
    live = [len(keep) for keep, _, _ in conn.live]
    return {"widths": list(conn.widths), "live_neurons": live,
            "live_share": sum(live) / sum(conn.widths)}


def _write_manifest(args, out: str, name: str, artifacts: dict, timings: dict,
                    extra: dict | None = None, config: dict | None = None) -> None:
    """Write name.manifest.json; its config is the parsed flags unless given."""
    if config is None:
        config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    doc = {
        "command": args.command,
        "version": sz.FORMAT_VERSION,
        "config": config,
        "artifacts": {p: cc.file_sha256(p) for p in artifacts.values()},
        "artifact_paths": artifacts,
        "timings": timings,
        **(extra or {}),
    }
    sz.save_manifest(doc, os.path.join(out, f"{name}.manifest.json"))


@contextlib.contextmanager
def _flag_values():
    """Report a ValueError raised while checking flag values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_at_least(args, **bounds) -> None:
    """Reject a flag value below its lower bound."""
    for dest, low in bounds.items():
        if getattr(args, dest) < low:
            raise UsageError(f"{dest} must be >= {low}, got {getattr(args, dest)}")


def _recipe_from_args(args) -> pl.RunRecipe:
    """The recipe from the command's recipe flags, defaults for the rest."""
    with _flag_values():  # the recipe checks every value on construction
        return pl.RunRecipe(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(pl.RunRecipe)
                               if hasattr(args, f.name)})


# ---------------------------------------------------------------- commands

def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    name = args.name or args.kind
    # a NaN or infinite fraction fails the range test and leaves no split
    n_train = round(args.n * args.train_frac) if 0 < args.train_frac < 1 else 0
    if not 0 < n_train < args.n:
        raise UsageError(f"train fraction {args.train_frac} leaves an empty split")
    _check_at_least(args, seed=0)
    paths = {
        "train": os.path.join(out, f"{name}.train.txt"),
        "test": os.path.join(out, f"{name}.test.txt"),
    }
    existing = [p for p in paths.values() if os.path.exists(p)]
    if existing and not args.force:
        raise UsageError(
            f"refusing to overwrite {existing[0]} (pass --force to allow)")
    t0 = time.perf_counter()
    with _flag_values():  # the generator checks the noise and separation
        full = dt.gen_dataset(args.kind, args.n, args.noise, args.seed, sep=args.sep)
    train_ds, test_ds = dt.split_dataset(full, n_train)
    sz.save_dataset(train_ds, paths["train"])
    sz.save_dataset(test_ds, paths["test"])
    _write_manifest(args, out, name, paths, {"seconds": time.perf_counter() - t0})
    print(f"wrote {paths['train']} ({train_ds.n} rows) and "
          f"{paths['test']} ({test_ds.n} rows)")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    name = args.name or f"{args.arch}-run"
    recipe = _recipe_from_args(args)
    train_ds = _load_any_dataset(args.train, recipe.k)
    _check_encoded_width(recipe.thresholds, train_ds.d)
    test_ds = _load_any_dataset(args.test, recipe.k, train_ds.d)
    print(f"encoder: K={recipe.thresholds} thresholds per feature "
          f"(resolution = {recipe.thresholds + 1}), delta={recipe.delta}, "
          f"input dim = {train_ds.d * recipe.thresholds}")
    res = pl.run_pipeline(train_ds, test_ds, recipe)
    paths = {
        "checkpoint": os.path.join(out, f"{name}.ckpt"),
        "history": os.path.join(out, f"{name}.history.jsonl"),
        "circuit": os.path.join(out, f"{name}.circuit.txt"),
    }
    sz.save_checkpoint(res.net, paths["checkpoint"], res.encoder)
    sz.save_history(res.history, paths["history"])
    res.circuit.provenance["source_sha256"] = cc.file_sha256(paths["checkpoint"])
    sz.save_circuit(res.circuit, paths["circuit"], res.encoder)
    _write_manifest(args, out, name, paths, res.timings,
                    {"gap_report": res.gap.__dict__,
                     "data": {"train": args.train, "test": args.test},
                     **_neuron_counts(res.net.conn)},
                    config=recipe.describe())
    g = res.gap
    print(f"soft accuracy {100 * g.soft_accuracy:.1f}%  "
          f"circuit accuracy {100 * g.circuit_accuracy:.1f}%  "
          f"gap {g.gap_pp:.2f}pp  unknown {100 * g.unknown_fraction:.1f}%")
    print(f"wrote {paths['checkpoint']}")
    return EXIT_OK


def cmd_harden(args) -> int:
    out = _out_dir(args)
    net, encoder = sz.load_checkpoint(args.checkpoint)
    _check_encoder(args.checkpoint, encoder, net)
    name = args.name or os.path.splitext(os.path.basename(args.checkpoint))[0]
    circuit = cc.harden_network(net)
    circuit.provenance["source_sha256"] = cc.file_sha256(args.checkpoint)
    herr = cc.hardening_error(net)
    paths = {"circuit": os.path.join(out, f"{name}.circuit.txt")}
    sz.save_circuit(circuit, paths["circuit"], encoder)
    extra: dict = {"hardening_error": herr, **_neuron_counts(net.conn)}
    if args.data:
        ds, x_enc = _encoded_data(args.data, args.checkpoint, encoder, net)
        gap = cc.gap_report(net, circuit, x_enc, ds.labels)
        paths["gap"] = os.path.join(out, f"{name}.gap.tsv")
        sz.save_report(
            [[f"{100 * gap.soft_accuracy:.2f}", f"{100 * gap.circuit_accuracy:.2f}",
              f"{gap.gap_pp:.2f}", f"{gap.hardening_error:.6g}",
              f"{100 * gap.unknown_fraction:.2f}", gap.n_samples]],
            paths["gap"],
            columns=["soft_acc_pct", "circuit_acc_pct", "gap_pp",
                     "hardening_error", "unknown_pct", "n"],
            comments=["soft network versus hardened circuit"],
        )
        extra["gap_report"] = gap.__dict__
        print(f"circuit accuracy {100 * gap.circuit_accuracy:.1f}%  "
              f"gap {gap.gap_pp:.2f}pp")
    _write_manifest(args, out, name, paths, {}, extra)
    print(f"wrote {paths['circuit']} (hardening error {herr:.3g})")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = _out_dir(args)
    circuit, encoder = sz.load_circuit(args.circuit)
    name = args.name or os.path.splitext(os.path.basename(args.circuit))[0].removesuffix(
        ".circuit")
    ds, x_enc = _encoded_data(args.data, args.circuit, encoder, circuit)
    x_enc = nw.ARCHS[circuit.arch].trit_inputs(x_enc)
    outputs, scores, preds, margins = cc.eval_circuit(circuit, x_enc)
    acc = float((preds == ds.labels).mean())
    unk = al.unknown_share(outputs)
    paths = {"metrics": os.path.join(out, f"{name}.metrics.tsv")}
    sz.save_report(
        [[f"{100 * acc:.2f}", f"{100 * unk:.2f}", ds.n]],
        paths["metrics"],
        columns=["circuit_acc_pct", "unknown_pct", "n"],
        comments=[f"circuit {args.circuit} on {args.data}"],
    )
    extra: dict = {"accuracy": acc, "unknown_fraction": unk,
                   **_neuron_counts(circuit.conn)}
    if args.selective:
        curve = an.coverage_curve(preds, margins, ds.labels)
        paths["selective"] = os.path.join(out, f"{name}.selective.tsv")
        sz.save_report(
            [[f"{c:.2f}", f"{100 * a:.2f}"] for c, a in curve.points],
            paths["selective"],
            columns=["coverage", "accuracy_pct"],
            comments=["margin-ordered selective accuracy",
                      f"AUC (sign-flipped, lower is better): {-curve.auc:.4f}"],
        )
        extra["selective_auc"] = curve.auc
    if args.diversity:
        div = an.diversity_report(circuit)
        paths["diversity"] = os.path.join(out, f"{name}.diversity.tsv")
        sz.save_report(
            [[div.n_neurons, div.unique_gates, f"{div.effective_diversity:.2f}",
              f"{div.gini:.4f}", f"{100 * div.redundancy:.2f}",
              div.max_copies, div.singletons]],
            paths["diversity"],
            columns=["neurons", "unique", "effective_diversity", "gini",
                     "redundancy_pct", "max_copies", "singletons"],
            comments=[f"gate vocabulary size {div.vocab_size}"],
        )
        extra["diversity"] = div.__dict__
    if args.spectral:
        prof = an.spectral_profile(circuit)
        paths["spectral"] = os.path.join(out, f"{name}.spectral.tsv")
        rows = [["unique_gates", prof.unique_gates],
                ["pct_ternary", f"{prof.pct_ternary:.2f}"],
                ["zero_energy_gates", prof.zero_energy_gates]]
        rows += [[f"class_{k}", f"{100 * v:.2f}"]
                 for k, v in prof.class_shares.items()]
        rows += [[f"band_{k}", f"{100 * v:.2f}"]
                 for k, v in prof.band_shares.items()]
        sz.save_report(rows, paths["spectral"], columns=["quantity", "value"],
                       comments=["spectral profile over distinct gates"])
        extra["spectral"] = {"pct_ternary": prof.pct_ternary,
                             "band_shares": prof.band_shares}
    _write_manifest(args, out, name, paths, {}, extra)
    print(f"circuit accuracy {100 * acc:.1f}%  unknown {100 * unk:.1f}%  "
          f"on {ds.n} samples")
    return EXIT_OK


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    name = args.name or f"sweep-{args.kind}"
    recipe = _recipe_from_args(args)
    t0 = time.perf_counter()
    with _flag_values():  # every row's values, before the first row trains
        if args.kind == "separation":
            _check_at_least(args, n_train=1, n_test=1, data_seed=0)
            seps = _parse_list(args.seps)
            for sep in seps:
                dt.bayes_accuracy_gaussians(sep)
        elif args.kind == "delta":
            recipes = [dataclasses.replace(recipe, arch="ternary", delta=delta)
                       for delta in _parse_list(args.deltas)]
        else:  # each row doubles the body widths of the one before
            recipes = [dataclasses.replace(
                recipe, arch="ternary", thresholds=count,
                body_widths=tuple(w * 2**i for w in recipe.body_widths))
                for i, count in enumerate(_parse_list(args.thresholds_list, int))]
    if args.kind == "separation":
        rows = an.separation_sweep(seps, recipe, n_train=args.n_train,
                                   n_test=args.n_test, data_seed=args.data_seed)
        columns = ["sep", "ternary_accuracy", "unknown_fraction",
                   "binary_accuracy", "bayes_accuracy", "error"]
    elif not (args.train and args.test):
        raise UsageError(f"{args.kind} sweep needs --train and --test datasets")
    else:
        train_ds = _load_any_dataset(args.train, recipe.k)
        for r in recipes:
            _check_encoded_width(r.thresholds, train_ds.d)
        test_ds = _load_any_dataset(args.test, recipe.k, train_ds.d)
        if args.kind == "delta":
            rows = an.delta_sweep(recipes, train_ds, test_ds)
            columns = ["delta", "encoder_unknown_share", "circuit_accuracy",
                       "unknown_fraction", "error"]
        else:
            rows = an.resolution_sweep(recipes, train_ds, test_ds)
            columns = ["thresholds", "resolution", "input_dim", "body_widths",
                       "circuit_accuracy", "unknown_fraction", "error"]
    paths = {"table": os.path.join(out, f"{name}.tsv")}
    sz.save_report(
        [[row.get(c, "") for c in columns] for row in rows],
        paths["table"], columns=columns,
        comments=[f"{args.kind} sweep, {recipe.steps} steps per run"],
    )
    _write_manifest(args, out, name, paths,
                    {"seconds": time.perf_counter() - t0}, {"rows": rows})
    print(f"wrote {paths['table']} ({len(rows)} rows)")
    return EXIT_OK


#: The thread settings of the numeric libraries a timing can depend on.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cmd_bench(args) -> int:
    out = _out_dir(args)
    name = args.name or "bench"
    widths = _recipe_from_args(args).widths
    _check_at_least(args, steps=1, input_dim=2, warmup=0)
    results = {}
    for arch in nw.ARCHS:
        times = pl._bench_arch(arch, widths, args.input_dim, args.batch_size,
                               args.steps, args.warmup, args.seed)
        results[arch] = {
            "median_ms": float(np.median(times) * 1000),
            "mean_ms": float(np.mean(times) * 1000),
            "steps": args.steps,
            "circuit_samples_per_s": pl._bench_circuit(arch, widths, args.input_dim,
                                                       args.steps, args.seed),
        }
    base, *others = results  # each other arch's median step over the first's
    ratios = {f"ratio_{arch}_over_{base}": results[arch]["median_ms"]
              / results[base]["median_ms"] for arch in others}
    counts = _neuron_counts(nw.sample_connectivity(widths, args.input_dim, args.seed))
    live = f"{100 * counts['live_share']:.1f}% of neurons live"
    warning = None
    if args.steps < 30:
        warning = (f"only {args.steps} measured steps; timing variance "
                   "is likely wide")
        print(f"warning: {warning}", file=sys.stderr)
    per_s = {arch: [f"{rate:.0f}" for rate in r["circuit_samples_per_s"].values()]
             for arch, r in results.items()}
    # what the timings depend on besides the code; None where unset
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "cpu_count": os.cpu_count(),
                   **{var: os.environ.get(var) for var in _THREAD_VARS}}
    paths = {"table": os.path.join(out, f"{name}.tsv")}
    sz.save_report(
        [[arch, f"{r['median_ms']:.3f}", f"{r['mean_ms']:.3f}", r["steps"],
          *per_s[arch]] for arch, r in results.items()],
        paths["table"],
        columns=["arch", "median_ms_per_step", "mean_ms_per_step", "steps",
                 "circuit_samples_per_s_1e3", "circuit_samples_per_s_1e5"],
        comments=[f"matched widths {widths}, batch {args.batch_size}, "
                  f"warmup {args.warmup}, {live}",
                  *(f"median {key}: {r:.2f}x" for key, r in ratios.items()),
                  "environment: " + ", ".join(f"{key} {value}"
                                              for key, value in environment.items())],
    )
    _write_manifest(args, out, name, paths, {},
                    {"results": results, **ratios, "warning": warning, **counts,
                     "environment": environment})
    print(", ".join(f"{arch} {r['median_ms']:.2f} ms/step" for arch, r in results.items())
          + " (" + ", ".join(f"{key} {r:.2f}x" for key, r in ratios.items())
          + f"); {live}, the only ones training steps run; "
          "circuit samples/s at 10^3/10^5 rows: "
          + ", ".join(f"{arch} " + "/".join(r) for arch, r in per_s.items()))
    return EXIT_OK


# ----------------------------------------------------------------- parser

# The flag of each RunRecipe field: its spellings and add_argument
# keywords. The flag's dest is the field's name, its default the field's.
_RECIPE_FLAGS = {
    "arch": (["--arch"], dict(choices=tuple(nw.ARCHS))),
    "body_widths": (["--widths"], dict(type=_parse_widths,
                                       help="comma-separated body widths")),
    "output_neurons": (["--output-neurons"], dict(type=int)),
    "k": (["--k"], dict(type=int, help="number of classes")),
    "tau": (["--tau"], dict(type=float)),
    "thresholds": (["--thresholds", "-K"], dict(
        type=int, help="thresholds per feature (resolution = K + 1)")),
    "delta": (["--delta"], dict(
        type=float, help="dead-zone width factor of the ternary encoder")),
    "steps": (["--steps"], dict(type=int)),
    "batch_size": (["--batch"], dict(type=int)),
    "lr": (["--lr"], dict(type=float)),
    "lambda_max": (["--lambda-max"], dict(type=float)),
    "gamma": (["--gamma"], dict(type=float)),
    "beta": (["--beta"], dict(type=float)),
    "loss": (["--loss"], dict(choices=("mse", "ce"))),
    "seed": (["--seed"], dict(type=int)),
    "eval_every": (["--eval-every"], dict(type=int)),
}


def _add_recipe_flags(p: argparse.ArgumentParser, dests=tuple(_RECIPE_FLAGS),
                      **defaults) -> None:
    """Add the flags of the named recipe fields, in `_RECIPE_FLAGS` order,
    with the recipe's defaults unless overridden here."""
    fields = {f.name: f.default for f in dataclasses.fields(pl.RunRecipe)}
    for name, (spellings, kw) in _RECIPE_FLAGS.items():
        if name in dests:
            p.add_argument(*spellings, dest=name, default=defaults.get(name, fields[name]),
                           **kw)


def build_parser() -> _Parser:
    parser = _Parser(prog="tritnet",
                     description="ternary logic gate networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None)
        p.add_argument("--name", default=None)
        p.add_argument("--config", help="manifest or JSON object whose config "
                       "values are read as flags placed before the explicit ones")
        p.set_defaults(fn=fn)
        return p

    p = add_parser("gen-data", cmd_gen_data, "generate a synthetic dataset")
    p.add_argument("--kind", required=True, choices=dt.DATASET_KINDS)
    p.add_argument("--n", type=int, default=2500, help="total points")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sep", type=float, default=2.0,
                   help="mean separation (gaussians only)")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")

    p = add_parser("train", cmd_train, "train a network and harden it")
    p.add_argument("--train", required=True, help="training dataset file")
    p.add_argument("--test", required=True, help="test dataset file")
    _add_recipe_flags(p)

    p = add_parser("harden", cmd_harden, "round a checkpoint to a circuit")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None,
                   help="dataset for a soft-versus-circuit gap report")

    p = add_parser("eval", cmd_eval, "evaluate a circuit on a dataset")
    p.add_argument("--circuit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--selective", action="store_true")
    p.add_argument("--diversity", action="store_true")
    p.add_argument("--spectral", action="store_true")

    p = add_parser("sweep", cmd_sweep, "run a parameter sweep")
    p.add_argument("--kind", required=True,
                   choices=("separation", "delta", "resolution"))
    p.add_argument("--seps", default="0.5,1.0,1.5,2.0,2.5,3.0")
    p.add_argument("--deltas", default="0.0,0.25,0.5,1.0")
    p.add_argument("--thresholds-list", default="2,4,8,16",
                   help="threshold counts for the resolution sweep")
    p.add_argument("--train", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--data-seed", type=int, default=0)
    _add_recipe_flags(p)

    p = add_parser("bench", cmd_bench, "time training steps and circuits of every arch")
    _add_recipe_flags(p, ("body_widths", "output_neurons", "batch_size",
                          "steps", "seed"), steps=50)
    p.add_argument("--input-dim", type=int, default=6)
    p.add_argument("--warmup", type=int, default=5)
    return parser


def _config_flags(action: argparse.Action, value) -> list[str]:
    """The command-line tokens that give action's dest a config value."""
    flag = action.option_strings[0]
    if action.nargs == 0:  # a switch such as --selective
        if not isinstance(value, bool):
            raise UsageError(f"argument {flag}: config value {value!r} is not "
                             "true or false")
        return [flag] if value else []
    items = value if isinstance(value, list) else [value]
    if all(isinstance(v, (str, int, float)) for v in items):
        text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
        if "\0" not in text:  # which no command line can carry
            return [f"{flag}={text}"]
    raise UsageError(f"argument {flag}: config value {value!r} is not a flag "
                     "value (a string, a number or a list of them)")


def _with_config(argv: list[str], parser: _Parser) -> list[str]:
    """argv with the values of a --config file placed as flags right after
    the subcommand, so that argparse types and checks them like typed
    flags and the explicit flags that follow win."""
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if not argv or argv[0] not in commands:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    config = doc.get("config", doc) if isinstance(doc, dict) else doc
    if not isinstance(config, dict):
        raise UsageError(f"config {path} is not a JSON object")
    flags = {a.dest: a for a in commands[argv[0]]._actions
             if a.option_strings and a.dest not in _NOT_CONFIG}
    tokens = []
    for dest, value in config.items():
        if dest in flags and value is not None:  # null keeps the default
            tokens += _config_flags(flags[dest], value)
    return [argv[0], *tokens, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(argv, parser))
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (dt.DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except tr.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
