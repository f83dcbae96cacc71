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
import json
import os
import sys
import time

import numpy as np

from . import analysis as an
from . import circuit as cc
from . import data as dt
from . import pipeline as pl
from . import serialize as sz
from . import training as tr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    """Bad flag combination or value, reported as exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("TRITNET_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"bad widths {text!r}, expected e.g. 512,512,512") from None
    if not widths or any(w < 1 for w in widths):
        raise UsageError(f"widths must be positive integers, got {text!r}")
    return widths


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad numeric list {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad integer list {text!r}") from None


def _load_any_dataset(path) -> dt.Dataset:
    """Read either the native dataset format or a plain CSV."""
    with open(path) as fh:
        first = fh.readline()
    if first.startswith(sz.DATASET_MAGIC):
        return sz.load_dataset(path)
    return dt.load_csv(path)


def _manifest(command: str, config: dict, artifacts: dict,
              timings: dict, extra: dict | None = None) -> dict:
    doc = {
        "command": command,
        "version": sz.FORMAT_VERSION,
        "config": config,
        "artifacts": {p: cc.file_sha256(p) for p in artifacts.values()},
        "artifact_paths": artifacts,
        "timings": timings,
    }
    if extra:
        doc.update(extra)
    return doc


def _write_manifest(doc: dict, out: str, name: str) -> str:
    path = os.path.join(out, f"{name}.manifest.json")
    sz.save_manifest(doc, path)
    return path


def _recipe_from_args(args) -> pl.RunRecipe:
    return pl.RunRecipe(
        arch=args.arch,
        body_widths=_parse_widths(args.widths),
        output_neurons=args.output_neurons,
        k=args.k,
        tau=args.tau,
        thresholds=args.thresholds,
        delta=args.delta,
        steps=args.steps,
        batch_size=args.batch,
        lr=args.lr,
        lambda_max=args.lambda_max,
        gamma=args.gamma,
        beta=args.beta,
        loss=args.loss,
        seed=args.seed,
        eval_every=args.eval_every,
    )


# ---------------------------------------------------------------- commands

def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    name = args.name or args.kind
    n_train = int(round(args.n * args.train_frac))
    if not 0 < n_train < args.n:
        raise UsageError(f"train fraction {args.train_frac} leaves an empty split")
    paths = {
        "train": os.path.join(out, f"{name}.train.txt"),
        "test": os.path.join(out, f"{name}.test.txt"),
    }
    existing = [p for p in paths.values() if os.path.exists(p)]
    if existing and not args.force:
        raise UsageError(
            f"refusing to overwrite {existing[0]} (pass --force to allow)")
    t0 = time.perf_counter()
    full = dt.gen_dataset(args.kind, args.n, args.noise, args.seed, sep=args.sep)
    train_ds, test_ds = dt.split_dataset(full, n_train)
    sz.save_dataset(train_ds, paths["train"])
    sz.save_dataset(test_ds, paths["test"])
    config = {"kind": args.kind, "n": args.n, "noise": args.noise,
              "seed": args.seed, "sep": args.sep, "train_frac": args.train_frac}
    doc = _manifest("gen-data", config, paths,
                    {"seconds": time.perf_counter() - t0})
    _write_manifest(doc, out, name)
    print(f"wrote {paths['train']} ({train_ds.n} rows) and "
          f"{paths['test']} ({test_ds.n} rows)")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    name = args.name or f"{args.arch}-run"
    train_ds = _load_any_dataset(args.train)
    test_ds = _load_any_dataset(args.test)
    recipe = _recipe_from_args(args)
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
    doc = _manifest("train", recipe.describe(), paths, res.timings,
                    {"gap_report": res.gap.__dict__,
                     "data": {"train": args.train, "test": args.test}})
    _write_manifest(doc, out, name)
    g = res.gap
    print(f"soft accuracy {100 * g.soft_accuracy:.1f}%  "
          f"circuit accuracy {100 * g.circuit_accuracy:.1f}%  "
          f"gap {g.gap_pp:.2f}pp  unknown {100 * g.unknown_fraction:.1f}%")
    print(f"wrote {paths['checkpoint']}")
    return EXIT_OK


def cmd_harden(args) -> int:
    out = _out_dir(args)
    net, encoder = sz.load_checkpoint(args.checkpoint)
    name = args.name or os.path.splitext(os.path.basename(args.checkpoint))[0]
    src_hash = cc.file_sha256(args.checkpoint)
    circuit = cc.harden_network(net, source_hash=src_hash)
    herr = cc.hardening_error(net)
    paths = {"circuit": os.path.join(out, f"{name}.circuit.txt")}
    sz.save_circuit(circuit, paths["circuit"], encoder)
    extra: dict = {"hardening_error": herr}
    if args.data:
        if encoder is None:
            raise UsageError("checkpoint has no encoder; cannot encode raw data")
        ds = _load_any_dataset(args.data)
        x_enc = dt.encode(ds.features, encoder)
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
    doc = _manifest("harden", {"checkpoint": args.checkpoint}, paths,
                    {}, extra)
    _write_manifest(doc, out, name)
    print(f"wrote {paths['circuit']} (hardening error {herr:.3g})")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = _out_dir(args)
    circuit, encoder = sz.load_circuit(args.circuit)
    name = args.name or os.path.splitext(os.path.basename(args.circuit))[0].replace(
        ".circuit", "")
    ds = _load_any_dataset(args.data)
    if encoder is None:
        raise UsageError("circuit file has no encoder; cannot encode raw data")
    x_enc = circuit.trit_inputs(dt.encode(ds.features, encoder))
    outputs, scores, preds, margins = cc.eval_circuit(circuit, x_enc)
    acc = float((preds == ds.labels).mean())
    unk = float((outputs == 0).mean())
    paths = {"metrics": os.path.join(out, f"{name}.metrics.tsv")}
    sz.save_report(
        [[f"{100 * acc:.2f}", f"{100 * unk:.2f}", ds.n]],
        paths["metrics"],
        columns=["circuit_acc_pct", "unknown_pct", "n"],
        comments=[f"circuit {args.circuit} on {args.data}"],
    )
    extra: dict = {"accuracy": acc, "unknown_fraction": unk}
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
    doc = _manifest("eval", {"circuit": args.circuit, "data": args.data},
                    paths, {}, extra)
    _write_manifest(doc, out, name)
    print(f"circuit accuracy {100 * acc:.1f}%  unknown {100 * unk:.1f}%  "
          f"on {ds.n} samples")
    return EXIT_OK


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    name = args.name or f"sweep-{args.kind}"
    recipe = _recipe_from_args(args)
    t0 = time.perf_counter()
    if args.kind != "separation":
        if not (args.train and args.test):
            raise UsageError(f"{args.kind} sweep needs --train and --test datasets")
        train_ds = _load_any_dataset(args.train)
        test_ds = _load_any_dataset(args.test)
    if args.kind == "separation":
        seps = _parse_floats(args.seps)
        rows = an.separation_sweep(seps, recipe, n_train=args.n_train,
                                   n_test=args.n_test, data_seed=args.data_seed)
        columns = ["sep", "ternary_accuracy", "unknown_fraction",
                   "binary_accuracy", "bayes_accuracy", "error"]
    elif args.kind == "delta":
        rows = an.delta_sweep(_parse_floats(args.deltas), recipe,
                              train_ds, test_ds)
        columns = ["delta", "encoder_unknown_share", "circuit_accuracy",
                   "unknown_fraction", "error"]
    elif args.kind == "resolution":
        counts = _parse_ints(args.thresholds_list)
        base = _parse_widths(args.widths)
        widths_rows = [tuple(w * 2**i for w in base) for i in range(len(counts))]
        rows = an.resolution_sweep(counts, widths_rows, recipe, train_ds, test_ds)
        columns = ["thresholds", "resolution", "input_dim", "body_widths",
                   "circuit_accuracy", "unknown_fraction", "error"]
    else:
        raise UsageError(f"unknown sweep kind {args.kind!r}")
    paths = {"table": os.path.join(out, f"{name}.tsv")}
    sz.save_report(
        [[row.get(c, "") for c in columns] for row in rows],
        paths["table"], columns=columns,
        comments=[f"{args.kind} sweep, {recipe.steps} steps per run"],
    )
    doc = _manifest("sweep", dict(recipe.describe(), kind=args.kind),
                    paths, {"seconds": time.perf_counter() - t0},
                    {"rows": rows})
    _write_manifest(doc, out, name)
    print(f"wrote {paths['table']} ({len(rows)} rows)")
    return EXIT_OK


def cmd_bench(args) -> int:
    out = _out_dir(args)
    name = args.name or "bench"
    widths = _parse_widths(args.widths) + (args.output_neurons,)
    results = {}
    for arch in ("ternary", "binary"):
        times = pl._bench_arch(arch, widths, args.input_dim, args.batch,
                               args.steps, args.warmup, args.seed)
        results[arch] = {
            "median_ms": float(np.median(times) * 1000),
            "mean_ms": float(np.mean(times) * 1000),
            "steps": args.steps,
        }
    ratio = results["binary"]["median_ms"] / results["ternary"]["median_ms"]
    warning = None
    if args.steps < 30:
        warning = (f"only {args.steps} measured steps; timing variance "
                   "is likely wide")
        print(f"warning: {warning}", file=sys.stderr)
    paths = {"table": os.path.join(out, f"{name}.tsv")}
    sz.save_report(
        [[arch, f"{r['median_ms']:.3f}", f"{r['mean_ms']:.3f}", r["steps"]]
         for arch, r in results.items()],
        paths["table"],
        columns=["arch", "median_ms_per_step", "mean_ms_per_step", "steps"],
        comments=[f"matched widths {widths}, batch {args.batch}, "
                  f"warmup {args.warmup}",
                  f"binary / ternary median ratio: {ratio:.2f}x"],
    )
    doc = _manifest(
        "bench",
        {"widths": list(widths), "batch": args.batch, "steps": args.steps,
         "warmup": args.warmup, "input_dim": args.input_dim, "seed": args.seed},
        paths, {}, {"results": results, "ratio_binary_over_ternary": ratio,
                    "warning": warning})
    _write_manifest(doc, out, name)
    print(f"ternary {results['ternary']['median_ms']:.2f} ms/step, "
          f"binary {results['binary']['median_ms']:.2f} ms/step "
          f"({ratio:.2f}x)")
    return EXIT_OK


# ----------------------------------------------------------------- parser

def _add_recipe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", choices=("ternary", "binary"), default="ternary")
    p.add_argument("--widths", default="512,512,512",
                   help="comma-separated body widths")
    p.add_argument("--output-neurons", type=int, default=200)
    p.add_argument("--k", type=int, default=2, help="number of classes")
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--thresholds", "-K", type=int, default=3,
                   help="thresholds per feature (resolution = K + 1)")
    p.add_argument("--delta", type=float, default=1.0,
                   help="dead-zone width factor of the ternary encoder")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lambda-max", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--loss", choices=("mse", "ce"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=500)


def build_parser() -> _Parser:
    parser = _Parser(prog="tritnet",
                     description="ternary logic gate networks")
    parser.sub_map = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        parser.sub_map[name] = p
        return p

    p = add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--kind", required=True, choices=dt.DATASET_KINDS)
    p.add_argument("--n", type=int, default=2500, help="total points")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sep", type=float, default=2.0,
                   help="mean separation (gaussians only)")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = add_parser("train", help="train a network and harden it")
    p.add_argument("--train", required=True, help="training dataset file")
    p.add_argument("--test", required=True, help="test dataset file")
    _add_recipe_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_train)

    p = add_parser("harden", help="round a checkpoint to a circuit")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None,
                   help="dataset for a soft-versus-circuit gap report")
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_harden)

    p = add_parser("eval", help="evaluate a circuit on a dataset")
    p.add_argument("--circuit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--selective", action="store_true")
    p.add_argument("--diversity", action="store_true")
    p.add_argument("--spectral", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_eval)

    p = add_parser("sweep", help="run a parameter sweep")
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
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = add_parser("bench", help="time training steps of both archs")
    p.add_argument("--widths", default="512,512,512")
    p.add_argument("--output-neurons", type=int, default=200)
    p.add_argument("--input-dim", type=int, default=6)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(fn=cmd_bench)
    return parser


def _apply_config_file(argv: list[str], parser: _Parser) -> list[str]:
    """Pull --config FILE out of argv and fold it into parser defaults.

    Values from the file sit between built-in defaults and explicit
    flags: flags always win.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[i + 1]
    argv = argv[:i] + argv[i + 2:]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    config = doc.get("config", doc)
    known = {}
    for key, value in config.items():
        flag = key.replace("-", "_")
        if flag == "body_widths":
            known["widths"] = ",".join(str(v) for v in value)
        elif flag == "batch_size":
            known["batch"] = value
        elif isinstance(value, (str, int, float, bool)):  # null keeps the default
            known[flag] = value
    # Subparsers fill the namespace from their own defaults, so the
    # overrides must land on each of them, not on the root parser.
    for p in parser.sub_map.values():
        p.set_defaults(**known)
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (dt.DataFormatError, sz.FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except tr.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
