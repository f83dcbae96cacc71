"""End-to-end benchmark of tritnet.

    python3 perfbench/run.py --workload train-ternary --seed 0 --seconds 50 --trace 0

Workloads (see perfbench/workloads.py): train-ternary and train-binary;
``all`` runs each in a child process of its own, so that peak memory is
per workload, and adds the binary-to-ternary ratio of train_wall_s.
With --trace 0 the timed phases run untraced and the end-to-end
metrics are printed. With --trace 1 they run once untraced
and twice traced, with fixed repetition counts, and the per-layer
metrics are printed. --smoke shrinks every size, for the benchmark's
own tests.

The program is imported from the src/ directory beside this one. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it show every metric
with its unit, the environment and any failed check. Inputs, outputs,
results and spans are written under --workdir.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-ternary", "train-binary")

END_TO_END = {
    "setup_s": "s",
    "train_wall_s": "s",
    "eval_large_samples_per_s": "1/s",
    "eval_small_ms_mean": "ms",
    "eval_small_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
#: How each end-to-end metric scales with machine speed: a time by
#: speed**1, a rate by speed**-1, memory not at all.
SPEED_POWER = {"setup_s": 1, "train_wall_s": 1, "eval_large_samples_per_s": -1,
               "eval_small_ms_mean": 1, "eval_small_ms_p95": 1, "peak_rss_mb": 0}

#: Per-layer metrics of the traced run; "<layer>.<function>.<stat>"
#: unless listed in SPECIAL_UNITS.
PER_LAYER = (
    "training.backward.self_ms", "training.backward.ms_p50",
    "training.backward.ms_p95", "training.backward.calls",
    "training.backward_binary.self_ms", "training.backward_binary.ms_p50",
    "training.backward_binary.ms_p95", "training.backward_binary.calls",
    "training.train.self_ms", "training.adam_step.ms",
    "training.commitment_loss.ms", "training.commitment_loss.calls",
    "training.commitment_grads.ms",
    "algebra.eval_poly_many.ms", "algebra.eval_poly_many.calls",
    "algebra.poly_input_grads.ms", "algebra.round_table.ms",
    "fourier.fourier_transform.ms", "fourier.fourier_transform.calls",
    "network.binary_gate_relaxation.ms", "network.binary_gate_relaxation.calls",
    "network.softmax.ms", "network.forward_soft.ms", "network.forward_binary.ms",
    "circuit.eval_circuit.ms", "circuit.eval_circuit.calls",
    "circuit.eval_circuit.samples", "circuit.eval_circuit.samples_per_s",
    "circuit.harden_network.ms", "circuit.harden_binary.ms",
    "circuit.gap_report.self_ms", "circuit.live_neuron_share",
    "circuit.file_sha256.ms",
    "data.encode.ms", "data.fit_encoder.ms",
    "analysis.selective_curve.self_ms", "analysis.spectral_profile.ms",
    "analysis.diversity_report.ms",
    "serialize.load_dataset.ms", "serialize.load_circuit.ms",
    "serialize.save_checkpoint.ms", "serialize.save_circuit.ms",
    "serialize.save_history.ms",
    "pipeline.run_pipeline.self_ms", "cli.main.self_ms",
    "trace_overhead_pct", "trace.absent_functions",
)
SPECIAL_UNITS = {"circuit.live_neuron_share": "share", "trace_overhead_pct": "%",
                 "trace.absent_functions": "count"}
STAT_UNITS = {"ms": "ms", "self_ms": "ms", "ms_p50": "ms", "ms_p95": "ms",
              "calls": "count", "samples": "count", "samples_per_s": "1/s"}


def per_layer_unit(name: str) -> str:
    return SPECIAL_UNITS.get(name) or STAT_UNITS[name.rsplit(".", 1)[1]]


def limit_threads() -> int:
    """Cap the BLAS/OpenMP thread settings at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(os.environ[var]) <= nproc
        except (KeyError, ValueError):
            ok = False
        if not ok:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": nproc, "cpu_model": cpu}
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    return env


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def end_to_end(bench, setups, walls) -> tuple[dict, list[str], float]:
    """End-to-end metric values, one explanatory line per metric, and
    the machine speed they were scaled by.

    The host's speed drifts for seconds at a time, so per-call times are
    bimodal; means over the whole run move smoothly with the share of
    slow time, where a median jumps between the modes. The timed phases
    therefore report means; set-up reports the median of its repeats.
    Every time is then scaled to the machine speed at which the
    yardstick takes NOMINAL_S (see perfbench/yardstick.py); the notes
    give the figures as measured.
    """
    import numpy as np

    from perfbench.yardstick import NOMINAL_S

    speed = NOMINAL_S / float(np.mean(walls["yardstick"]))
    n_large = bench.sizes.large_rows
    small_ms = [1000.0 * w for w in walls["small"]]
    measured = {
        "setup_s": _median(setups),
        "train_wall_s": float(np.mean(walls["train"])),
        "eval_large_samples_per_s": n_large * len(walls["large"]) / sum(walls["large"]),
        "eval_small_ms_mean": float(np.mean(small_ms)),
        "eval_small_ms_p95": float(np.percentile(small_ms, 95)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values = {name: v * speed ** SPEED_POWER[name] for name, v in measured.items()}
    notes = {
        "setup_s": f"median over set-ups ({_spread(setups)})",
        "train_wall_s": f"mean over {bench.sizes.train_steps}-step runs, "
                        f"median {_median(walls['train']):.6g} s ({_spread(walls['train'])})",
        "eval_large_samples_per_s": f"{n_large} rows per call / mean phase A wall "
                                    f"({_spread(walls['large'])})",
        "eval_small_ms_mean": f"{bench.sizes.small_rows}-row calls, n={len(small_ms)}, "
                              f"p50 {np.percentile(small_ms, 50):.6g} ms",
        "eval_small_ms_p95": f"{bench.sizes.small_rows}-row calls, "
                             f"n={len(small_ms)}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"measured {measured[name]:.6g}; {notes[name]}" for name in END_TO_END]
    return values, lines, speed


def per_layer(passes) -> tuple[dict, list[str], list[str]]:
    """Per-layer values, absent functions and self-check problems.

    ms-valued statistics are the median of the traced passes; counts
    must repeat exactly between them.
    """
    untraced = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    stats = [p["tracer"].stats() for p in traced]
    counts = [p["tracer"].counts for p in traced]
    problems = []
    for i in range(1, len(traced)):
        changed = sorted(n for n in stats[0] if stats[i][n]["calls"] != stats[0][n]["calls"])
        if changed:
            problems.append(f"call counts differ between traced passes: {changed}")
        if counts[i] != counts[0]:
            problems.append(f"work counts differ between traced passes: {counts}")
        if traced[i]["live_neuron_share"] != traced[0]["live_neuron_share"]:
            problems.append("live_neuron_share differs between traced passes")
    available = traced[0]["tracer"].public_functions()
    values, absent = {}, []
    for name in PER_LAYER:
        if name == "circuit.live_neuron_share":
            values[name] = traced[0]["live_neuron_share"]
            continue
        if name == "trace_overhead_pct":
            traced_s = _median([p["wall_s"] for p in traced])
            values[name] = 100.0 * (traced_s / _median([p["wall_s"] for p in untraced]) - 1.0)
            continue
        if name == "trace.absent_functions":
            continue
        fn, stat = name.rsplit(".", 1)
        if fn not in available:
            if fn not in absent:
                absent.append(fn)
            values[name] = 0
        elif stat == "calls":
            values[name] = stats[0][fn]["calls"]
        elif stat == "samples":
            values[name] = counts[0][fn]
        elif stat == "samples_per_s":
            ms = _median([s[fn]["ms"] for s in stats])
            values[name] = 1000.0 * counts[0][fn] / ms if ms > 0 else 0.0
        else:
            values[name] = _median([s[fn][stat] for s in stats])
    values["trace.absent_functions"] = len(absent)
    return values, absent, problems


def run_one(args, sizes, nproc) -> dict:
    import tritnet

    from perfbench import workloads

    if Path(tritnet.__file__).resolve().parent != SRC / "tritnet":
        raise SystemExit(f"perfbench: imported tritnet from {tritnet.__file__}, "
                         f"not from {SRC}")
    workdir = os.path.join(args.workdir, args.workload)
    bench = workloads.Bench(args.workload, sizes, args.seed, workdir)
    setups = [bench.setup()]
    lines, absent, problems = [], [], []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "sizes": asdict(sizes),
              "environment": environment(nproc), "setups": setups}
    if args.trace:
        modules = {layer: sys.modules[f"tritnet.{layer}"] for layer in workloads.LAYERS}
        passes = bench.traced_passes(modules)
        values, absent, problems = per_layer(passes)
        units = {name: per_layer_unit(name) for name in PER_LAYER}
        lines = [""] * len(PER_LAYER)
        with open(os.path.join(workdir, f"spans-seed{args.seed}.json"), "w") as fh:
            json.dump([dict(p["tracer"].dump(), wall_s=p["wall_s"])
                       for p in passes if p["tracer"] is not None], fh)
        record["pass_walls"] = [p["wall_s"] for p in passes]
    else:
        walls = bench.measure(args.seconds)
        setups += walls.pop("setup")
        values, lines, speed = end_to_end(bench, setups, walls)
        units = END_TO_END
        record.update(walls=walls, machine_speed=speed)
    failures = bench.failures + problems
    result = {
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record.update(result=result, failures=failures, absent=absent)
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}{'  smoke' if args.smoke else ''}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if "machine_speed" in record:
        print(f"machine speed {record['machine_speed']:.6g} (yardstick); "
              f"times and rates below are scaled by it")
    for (name, unit), note in zip(units.items(), lines):
        print(f"  {name:40s} {values[name]:>14.6g} {unit:6s} {note}")
    print(f"  {'error_rate':40s} {result['failed'] / max(1, result['attempted']):>14.6g} "
          f"{'share':6s} {result['failed']} failed of {result['attempted']} operations")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    for msg in failures[:10]:
        print(f"FAILED {msg}")
    return result


def run_all(args) -> dict:
    """Each workload in a child process; per-workload rows and the ratio."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", args.workdir]
        if args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]))
            results[name] = json.loads(out[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            print(f"{name}: no result ({exc!r})")
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    names = list(END_TO_END if not args.trace else PER_LAYER)
    print(f"\n{'metric':40s}" + "".join(f"{w:>16s}" for w in results))
    for m in names:
        cells = [results[w]["metrics"].get(m, {}).get("value") for w in results]
        print(f"{m:40s}" + "".join(f"{'-' if c is None else format(c, '.6g'):>16s}"
                                   for c in cells))
    ternary, binary = (results[w]["metrics"].get("train_wall_s")
                       for w in ("train-ternary", "train-binary"))
    if ternary and binary:
        ratio = binary["value"] / ternary["value"]
        print(f"{'train_wall_s binary / ternary':40s}{ratio:>16.4f}  (base: train-ternary)")
        metrics["train_wall_ratio_binary_over_ternary"] = {"value": ratio, "unit": "ratio"}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny widths and row counts, for tests")
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench_work"))
    args = parser.parse_args(argv)
    if not (SRC / "tritnet" / "__init__.py").is_file():
        print(f"perfbench: no tritnet sources in {SRC}", file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    t0 = time.perf_counter()
    if args.workload == "all":
        result = run_all(args)
    else:
        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        result = run_one(args, sizes, nproc)
    print(f"total {time.perf_counter() - t0:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
