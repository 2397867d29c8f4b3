"""Smoke test of the benchmark itself (about 90 seconds; not part of tier-1).

    python3 bench/smoke.py

Runs every workload briefly with tracing off and on, and checks:

- the last stdout line has exactly the result keys, and its metrics are the
  ones BENCHMARK.json lists, with their units, as finite numbers;
- every referee passed;
- every wrapped boundary a workload should reach fired at least once, and
  the layers a workload should bypass stayed at zero, so a refactor that
  reroutes a call fails here instead of reporting zero for a layer;
- without the program's source next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

REACHES = {
    "theta_sweep": (
        "cli.main", "sweep.parse_config", "sweep.run_sweep", "sweep.emit",
        "metrology.qfi_numeric", "metrology.qfi_closed_form",
        "metrology.sensitivity_number_sum", "metrology._side_moments",
        "metrology.optimal_tritter_angle", "pipeline.pre_measurement_state",
        "pipeline.run_interferometer", "pipeline.pump_depletion", "channels.tritter",
        "channels.pumped_two_mode_squeezer", "channels.squeezing_channel",
        "channels.mode_mixing_channel", "channels.embed_on_side_modes",
        "states.symplectic_form", "states.apply_symplectic",
        "states.SymplecticOp.__post_init__", "states.GaussianState.__post_init__"),
    "single_point": (
        "cli.main", "cli.build_parser", "sweep.parse_config", "sweep.run_sweep",
        "metrology.qfi_numeric", "metrology.qfi_closed_form",
        "metrology.sensitivity_number_sum", "pipeline.pre_measurement_state",
        "channels.tritter", "states.apply_symplectic"),
    "gw_grid": (
        "cli.main", "sweep.parse_config", "sweep.run_sweep", "sweep.emit",
        "gw.compare_schemes", "gw.original_scheme_qfi", "gw.pumped_scheme_qfi",
        "pipeline.max_tritter_angle"),
    "fock_referee": (
        "validation.oracle_checks", "fock.FockSpace.__init__", "fock.expm_multiply",
        "fock.prepare_state_fock", "fock.pipeline_state_fock", "fock.number_moments_fock",
        "fock.number_diff_moments_fock", "fock.channel_generator", "fock.generator_variance",
        "metrology.qfi_numeric", "states.apply_symplectic"),
}
BYPASSES = {
    "theta_sweep": ("fock.", "validation.", "gw."),
    "single_point": ("fock.", "validation.", "gw.", "sweep.emit"),
    "gw_grid": ("fock.", "validation.", "metrology.", "states.", "channels.",
                "pipeline.pre_measurement_state", "pipeline.run_interferometer"),
    "fock_referee": ("cli.", "sweep.", "gw."),
}


def _run(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_workload(name, spec, failures):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", name, "--seed", "0", "--seconds", "0.5", "--trace", str(trace))
        where = f"{name} trace {trace}"
        if proc.returncode != 0:
            failures.append(f"{where}: exit {proc.returncode}\n{proc.stdout[-1500:]}"
                            f"{proc.stderr[-1500:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"{where}: result keys {sorted(result)}")
            continue
        if result["correct"] is not True or result["failed"] != 0 \
                or not isinstance(result["attempted"], int) or result["attempted"] < 1:
            failures.append(f"{where}: correct={result['correct']} "
                            f"attempted={result['attempted']} failed={result['failed']}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {m: v.get("unit") for m, v in result["metrics"].items()}
        if got != expected:
            failures.append(f"{where}: metric names or units differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(expected))}")
        for metric, value in result["metrics"].items():
            if sorted(value) != ["unit", "value"] or not isinstance(value["value"], float) \
                    or not math.isfinite(value["value"]):
                failures.append(f"{where}: {metric} = {value}")
        if trace == 1:
            with open(os.path.join(ROOT, ".bench_out", f"result-{name}-trace1.json"),
                      encoding="utf-8") as fh:
                calls = json.load(fh)["provenance"]["span_calls"]
            for boundary in REACHES[name]:
                if not calls.get(boundary):
                    failures.append(f"{where}: boundary {boundary} never fired")
            for prefix in BYPASSES[name]:
                hit = [b for b, n in calls.items() if b.startswith(prefix) and n]
                if hit:
                    failures.append(f"{where}: bypassed layer reached: {hit}")


def check_bare_directory(failures):
    """Only BENCHMARK.json and the benchmark's files: no program, so no result."""
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("--workload", "theta_sweep", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare,
                    run=os.path.join(bare, os.path.basename(HERE), "run.py"))
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout "
                            f"{proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    check_bare_directory(failures)
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec, failures)
        print(f"{workload['name']}: done", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
