"""Benchmark for pumpedsu11: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload theta_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop; no thread pool (``--workers`` unset).
The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md for every
definition).  Referees run outside every timed region; the exit code is 1 if
any of them fails and 2 if the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("theta_sweep", "single_point", "gw_grid", "fock_referee")

SETUP_PROCESSES = 5
MIN_UNITS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import pumpedsu11.cli; "
              "from pumpedsu11.sweep import parse_config; "
              "[parse_config(p) for p in sys.argv[2:]]")
# channels functions that construct a SymplecticOp, counted by channels.ops_built_per_row
CHANNEL_BUILDERS = ("pumped_two_mode_squeezer", "tritter", "tritter_from_generator",
                    "squeezing_channel", "mode_mixing_channel", "phase_channel",
                    "gw_squeezing_channel", "gw_mode_mixing_channel", "embed_on_side_modes")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args):
    import numpy
    import scipy
    sha = _git("rev-parse", "HEAD") if os.path.exists(os.path.join(ROOT, ".git")) else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status),
            "src_sha256": _source_digest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def setup_seconds(paths):
    """Median wall time of fresh interpreters importing the package and parsing ``paths``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PUMPEDSU11_OUTDIR")}
    samples = []
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *paths], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
    return statistics.median(samples), len(samples)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_untraced(workload, seconds):
    from workloads import Tally
    tally = Tally()
    workload.check(workload.unit(0), tally)  # warm-up: lazy imports and caches fill here
    amounts, seconds_spent, latencies = [], [], []
    start, i = time.perf_counter(), 1
    while i <= MIN_UNITS or time.perf_counter() - start < seconds:
        unit = workload.unit(i)
        amounts.append(unit.amount)
        seconds_spent.append(unit.seconds)
        latencies.extend(unit.latencies)
        workload.check(unit, tally)
        i += 1
    return tally, amounts, seconds_spent, latencies


def run_traced(workload, seconds, tracer):
    """Alternate an untraced and a traced run of the same unit, swapping their order."""
    from workloads import Tally
    tally, traced_tally = Tally(), Tally()
    workload.check(workload.unit(0), tally)
    wall = {False: 0.0, True: 0.0}
    units = 0
    start = time.perf_counter()
    while units < MIN_UNITS or time.perf_counter() - start < seconds:
        for traced in ((False, True) if units % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                unit = workload.unit(units + 1)
            finally:
                wall[traced] += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            unit_tally = Tally()
            workload.check(unit, unit_tally)
            tally.add(unit_tally)
            if traced:
                traced_tally.add(unit_tally)
        units += 1
    return tally, traced_tally, units, wall[True] / wall[False]


def per_layer_metrics(workload, tracer, traced, units, overhead):
    from spans import layer_self_ns
    summary = tracer.summary()
    layer_ms = {layer: ns / 1e6 for layer, ns in layer_self_ns(summary).items()}

    def stat(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    def per(value, count):
        return value / count if count else 0.0

    def p50_ms(name):
        durations = stat(name, "durations_ns")
        return statistics.median(durations) / 1e6 if durations else 0.0

    rows = traced.rows_evaluated
    ladder = getattr(workload, "LADDER", ())
    built = sum(stat(f"channels.{name}") for name in CHANNEL_BUILDERS)
    count, ms, ratio = "count", "ms", "ratio"
    metrics = {
        "states.symplectic_form.calls_per_row": (per(stat("states.symplectic_form"), rows), count),
        "states.symplectic_op.new_per_row":
            (per(stat("states.SymplecticOp.__post_init__"), rows), count),
        "states.gaussian_state.new_per_row":
            (per(stat("states.GaussianState.__post_init__"), rows), count),
        "states.apply_symplectic.calls_per_row":
            (per(stat("states.apply_symplectic"), rows), count),
        "states.self_ms_per_row": (per(layer_ms["states"], rows), ms),
        "channels.ops_built_per_row": (per(built, rows), count),
        "channels.self_ms_per_row": (per(layer_ms["channels"], rows), ms),
        "pipeline.builds_per_row": (per(stat("pipeline.pre_measurement_state"), rows), count),
        "pipeline.self_ms_per_row": (per(layer_ms["pipeline"], rows), ms),
        "metrology.qfi_numeric.ms_p50": (p50_ms("metrology.qfi_numeric"), ms),
        "metrology.sensitivity_number_sum.ms_p50":
            (p50_ms("metrology.sensitivity_number_sum"), ms),
        "metrology.self_ms_per_row": (per(layer_ms["metrology"], rows), ms),
        "metrology.h_rel_err_max": (traced.h_rel_err_max, ratio),
        "metrology.f0_rel_err_max": (traced.f0_rel_err_max, ratio),
        "sweep.parse_config.ms": (p50_ms("sweep.parse_config"), ms),
        "sweep.run_sweep.self_ms_per_row":
            (per(stat("sweep.run_sweep", "self_ns") / 1e6, traced.rows_total), ms),
        "sweep.emit.ms_per_row":
            (per(stat("sweep.emit", "incl_ns") / 1e6, traced.emitted_rows), ms),
        "sweep.emit.bytes_per_row": (per(traced.emit_bytes, traced.emitted_rows), "B"),
        "sweep.error_rows": (per(traced.error_rows, units), count),
        "cli.main.self_ms": (per(layer_ms["cli"], stat("cli.main")), ms),
        "gw.compare_schemes.us_p50": (p50_ms("gw.compare_schemes") * 1e3, "us"),
        "gw.self_ms_per_row": (per(layer_ms["gw"], rows), ms),
        "fock.space.builds": (per(stat("fock.FockSpace.__init__"), units), count),
        "fock.space.ms": (per(stat("fock.FockSpace.__init__", "incl_ns") / 1e6, units), ms),
        "fock.expm_multiply.calls": (per(stat("fock.expm_multiply"), units), count),
        "fock.expm_multiply.ms": (per(stat("fock.expm_multiply", "incl_ns") / 1e6, units), ms),
        "fock.dim_max":
            (max(ladder) ** 3 if ladder and stat("fock.FockSpace.__init__") else 0, count),
        "fock.leakage_errors": (stat("fock.prepare_state_fock", "raised"), count),
        "validation.checks_passed": (per(traced.checks_passed, traced.validate_calls), count),
        "validation.self_ms": (per(layer_ms["validation"], traced.validate_calls), ms),
        "trace_overhead_frac": (overhead, ratio),
    }
    samples = dict.fromkeys(metrics, units)
    for metric in ("metrology.qfi_numeric.ms_p50", "metrology.sensitivity_number_sum.ms_p50",
                   "sweep.parse_config.ms", "gw.compare_schemes.us_p50"):
        samples[metric] = stat(metric.rsplit(".", 1)[0])
    span_calls = {name: entry["calls"] for name, entry in sorted(summary.items())}
    return metrics, samples, span_calls


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "pumpedsu11", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("PUMPEDSU11_OUTDIR", None)  # the CLI would redirect --out there
    import numpy as np
    import pumpedsu11
    if not os.path.abspath(pumpedsu11.__file__).startswith(SRC + os.sep):
        print(f"error: pumpedsu11 imported from {pumpedsu11.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    info = provenance(args)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    try:
        index = WORKLOAD_NAMES.index(args.workload)
        workload = WORKLOADS[args.workload](
            np.random.default_rng([args.seed % 2 ** 64, index]), workdir)
        extra = {}
        if args.trace == 0:
            setup_s, setup_samples = setup_seconds(workload.setup_paths)
            tally, amounts, seconds_spent, latencies = run_untraced(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "ops_per_s": (sum(amounts) / sum(seconds_spent), "1/s"),
                "op_ms_mean": (statistics.fmean(latencies) * 1e3, "ms"),
            }
            samples = {"setup_s": setup_samples, "peak_rss_mb": 1, "ops_per_s": sum(amounts),
                       "op_ms_mean": len(latencies)}
            for name, q in (("op_ms_p50", 0.5), ("op_ms_p99", 0.99)):
                extra[name] = {"value": _percentile(latencies, q) * 1e3, "unit": "ms",
                               "samples": len(latencies)}
            raw = {"unit_amounts": amounts, "unit_seconds": seconds_spent,
                   "latencies_s": latencies}
        else:
            tracer = Tracer()
            tally, traced, units, overhead = run_traced(workload, args.seconds, tracer)
            metrics, samples, extra["span_calls"] = per_layer_metrics(workload, tracer, traced,
                                                                      units, overhead)
            raw = {}
            tracer.write(os.path.join(OUT, f"trace-{args.workload}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["samples"] = samples
    info["fail_frac"] = tally.failed / tally.attempted
    info["failures"] = tally.messages
    info.update(extra)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({samples[name]} samples)")
    for name in ("op_ms_p50", "op_ms_p99"):
        if name in extra:
            print(f"  {name} = {extra[name]['value']:.6g} ms  ({extra[name]['samples']} samples)")
    print(f"  fail_frac = {info['fail_frac']:.6g}  ({tally.failed}/{tally.attempted})")
    for message in tally.messages:
        print(f"  FAILED {message}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": info, "result": result, "raw_samples": raw}, fh, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process; prints each one's metrics, fails if any fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        if proc.returncode != 0:
            print(proc.stderr.strip()[-2000:], file=sys.stderr)
            status = max(status, proc.returncode)
    return status


def main(argv=None):
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
