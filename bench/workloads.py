"""The four seeded workloads: input generation, one timed unit of work, referees.

Every workload draws its inputs from ``--seed`` alone and hands the program
only generated config files and call parameters.  A *unit* is the smallest
piece of closed-loop work the runner times (one sweep call, a batch of CLI
points, one validate-plus-ladder cycle); ``check`` referees a unit's outputs
after its clock has stopped and with tracing uninstalled, using the tolerance
the matching tier-1 test uses.

The program's modules are looked up as attributes at call time
(``cli.main``, ``fock.prepare_state_fock``) so that the tracer's wrappers are
reached when they are installed.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from pumpedsu11 import cli, fock, metrology, pipeline, states, sweep, validation
from pumpedsu11.channels import ChannelSpec

H_RTOL = 1e-6           # H_numeric vs qfi_closed_form (acceptance criterion 1)
F0_RTOL = 1e-3          # F0 at eps0 = 1e-3 vs f0_closed_form (test_metrology)
F0_H_SLACK = 1e-9       # F0 <= H (1 + slack) (test_metrology)
ORACLE_RTOL = 1e-3      # Fock vs Gaussian moments and 4 Var(G) (criterion 7)
LEAKAGE_LIMIT = 1e-6    # Fock truncation leakage (criterion 7)
GW_RTOL = 1e-9          # gw identities on 13-significant-digit output
TWO_PI = 2.0 * math.pi


@dataclass
class Unit:
    """One timed piece of work: ``amount`` operations in ``seconds``."""

    amount: int
    seconds: float
    latencies: list
    outputs: object


@dataclass
class Tally:
    """What the referees saw; summed over units."""

    attempted: int = 0
    failed: int = 0
    rows_total: int = 0        # table rows written or returned
    rows_evaluated: int = 0    # rows whose config reached the physics layers
    error_rows: int = 0
    emit_bytes: int = 0
    emitted_rows: int = 0
    validate_calls: int = 0
    checks_passed: int = 0
    h_rel_err_max: float = 0.0
    f0_rel_err_max: float = 0.0
    messages: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def add(self, other):
        for name, value in vars(other).items():
            if name == "messages":
                self.messages.extend(value[:20 - len(self.messages)])
            elif name.endswith("_max"):
                setattr(self, name, max(getattr(self, name), value))
            else:
                setattr(self, name, getattr(self, name) + value)


def _rel(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def _call_cli(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def _cell(value):
    """A table cell as emit writes it: 13 significant digits, blank for None."""
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.12e}"


def _interferometer_params(rng, kind):
    """Seeded base parameters at the optimal phase relations (the paper's operating point).

    The F0 referee compares a finite-strain F0 (eps0 = 1e-3) with its eps -> 0
    closed form.  At the optimal phases the O(eps0^2) difference stayed below
    3.6e-4 over 400 draws; at arbitrary phases it exceeded the 1e-3 tolerance
    on 7% of them, which is physics, not a fault of the program.
    """
    pump_phase, channel_phase = rng.uniform(0.0, TWO_PI, 2)
    squeeze_phase, tritter_phase = metrology.optimal_phases(
        kind, pump_phase, channel_phase, squeeze_phase=rng.uniform(0.0, TWO_PI))
    return {"channel": kind, "strength": rng.uniform(0.5, 2.0),
            "nbar": 10.0 ** rng.uniform(2.0, 6.0), "channel_phase": channel_phase,
            "pump_phase": pump_phase, "squeeze_phase": squeeze_phase,
            "tritter_phase": tritter_phase}


def _r_max(nbar):
    # keep the side modes below a quarter of the input so the pump dominates
    return min(2.0, math.asinh(math.sqrt(nbar / 8.0)))


def _config_text(params, sweeps=()):
    lines = [f"{k} = {v if isinstance(v, str) else repr(float(v))}" for k, v in params.items()]
    if sweeps:
        lines.append("[sweep]")
        lines += [f"{name} = values {' '.join(repr(float(v)) for v in values)}"
                  for name, values in sweeps]
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _build(params, **overrides):
    p = dict(params, **overrides)
    return pipeline.InterferometerConfig(
        nbar=p["nbar"], r=p["r"], theta=p["theta"],
        channel=ChannelSpec(p["channel"], p["strength"], p["channel_phase"]),
        pump_phase=p["pump_phase"], squeeze_phase=p["squeeze_phase"],
        tritter_phase=p["tritter_phase"])


def _physics_referee(tally, where, params, h_numeric, f0=None):
    """H_numeric vs the exact closed form, and F0 vs its closed form and vs H.

    Records one failure at most; returns whether the point passed.
    """
    config = _build(params)
    h_err = _rel(h_numeric, metrology.qfi_closed_form(config, "exact"))
    tally.h_rel_err_max = max(tally.h_rel_err_max, h_err)
    if h_err >= H_RTOL:
        tally.fail(f"{where}: H_numeric rel err {h_err:.2e} >= {H_RTOL:.0e}")
        return False
    if f0 is None:
        return True
    f0_err = _rel(f0, metrology.f0_closed_form(config, "exact"))
    tally.f0_rel_err_max = max(tally.f0_rel_err_max, f0_err)
    if f0_err >= F0_RTOL or f0 > h_numeric * (1.0 + F0_H_SLACK):
        tally.fail(f"{where}: F0 {f0!r} fails its referee (rel err {f0_err:.2e}, "
                   f"H {h_numeric!r})")
        return False
    return True


class ThetaSweep:
    """``pumpedsu11 sweep`` over a theta x r grid, CSV output, all five quantities.

    Two seeded configs (squeezing, mode mixing) alternate.  The r axis holds
    ``r = 0`` (theta_t undefined: an error cell, the other quantities still
    computed) and one depleted-pump value (the whole row is an error), so a
    fixed 20% of rows take each per-row error path on purpose.
    """

    name = "theta_sweep"
    THETAS = 10
    R_VALUES = 5

    def __init__(self, rng, workdir):
        self.configs = []
        for kind in ("squeezing", "mode_mixing"):
            params = _interferometer_params(rng, kind)
            thetas = np.sort(rng.uniform(0.05, 1.5, self.THETAS))
            r_hi = _r_max(params["nbar"])
            r_depleted = math.asinh(math.sqrt(params["nbar"] / 2.0)) + rng.uniform(0.1, 0.5)
            rs = [0.0, *np.sort(rng.uniform(0.5, r_hi, self.R_VALUES - 2)), r_depleted]
            path = _write(os.path.join(workdir, f"{kind}.conf"),
                          _config_text(params, (("theta", thetas), ("r", rs)))
                          + "[outputs]\nquantities = H_numeric H_closed F0 moments theta_t\n")
            grid = [(t, r) for t in thetas for r in rs]
            self.configs.append({"path": path, "params": params, "grid": grid,
                                 "r_depleted": r_depleted,
                                 "out": os.path.join(workdir, f"{kind}.csv")})
        self.setup_paths = [c["path"] for c in self.configs]
        self._reference = {}

    def unit(self, i):
        c = self.configs[i % len(self.configs)]
        seconds, code, text = _call_cli(["sweep", "--config", c["path"], "--out", c["out"]])
        return Unit(len(c["grid"]), seconds, [seconds], (c, code, text))

    def _reference_rows(self, c):
        if c["path"] not in self._reference:
            spec = sweep.parse_config(c["path"])
            rows = sweep.run_sweep(spec)
            columns = list(sweep.sweeps_names(spec.sweeps)) + list(sweep.INTERFEROMETER_COLUMNS)
            self._reference[c["path"]] = (columns, [[_cell(r.get(k)) for k in columns]
                                                    for r in rows])
        return self._reference[c["path"]]

    def check(self, unit, tally):
        c, code, text = unit.outputs
        rows = len(c["grid"])
        tally.attempted += rows
        tally.rows_total += rows
        if code != 0:
            tally.failed += rows
            tally.messages.append(f"sweep exited {code}: {text.strip()[-200:]}")
            return
        tally.emit_bytes += os.path.getsize(c["out"])
        tally.emitted_rows += rows
        with open(c["out"], newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        columns, reference = self._reference_rows(c)
        if table[0] != columns or len(table) - 1 != rows:
            tally.failed += rows
            tally.messages.append(f"{c['out']}: header or row count does not match the grid")
            return
        col = {name: k for k, name in enumerate(columns)}
        for index, ((theta, r), cells, ref) in enumerate(zip(c["grid"], table[1:], reference)):
            where = f"{os.path.basename(c['out'])} row {index}"
            error = cells[col["error"]]
            tally.error_rows += bool(error)
            depleted = r == c["r_depleted"]
            tally.rows_evaluated += not depleted
            if cells != ref:
                tally.fail(f"{where}: written cells do not parse back to the table")
                continue
            if float(cells[col["theta"]]) != float(_cell(theta)) \
                    or float(cells[col["r"]]) != float(_cell(r)):
                tally.fail(f"{where}: swept values out of grid order")
                continue
            values = {k: float(cells[col[k]]) if cells[col[k]] else None
                      for k in sweep.INTERFEROMETER_COLUMNS[:-1]}
            if depleted:
                ok = error.startswith("pump depleted") and all(v is None for v in values.values())
            elif r == 0.0:
                ok = error.startswith("theta_t:") and ";" not in error \
                    and values["theta_t"] is None
            else:
                ok = error == "" and values["theta_t"] is not None
            if not ok:
                tally.fail(f"{where}: error cell {error!r} is not the designed one")
                continue
            if depleted:
                continue
            if any(values[k] is None for k in ("H_numeric", "F0", "mean_S", "var_S")):
                tally.fail(f"{where}: missing quantity")
            else:
                _physics_referee(tally, where, dict(c["params"], theta=theta, r=r),
                                 values["H_numeric"], values["F0"])


class SinglePoint:
    """A seeded stream of distinct one-point configs through in-process ``qfi``
    and ``sensitivity``; each call parses its own config file."""

    name = "single_point"
    CONFIGS = 200
    BATCH = 20

    def __init__(self, rng, workdir):
        self.items = []
        for k in range(self.CONFIGS):
            params = _interferometer_params(rng, ("squeezing", "mode_mixing")[k % 2])
            params["theta"] = rng.uniform(0.05, 1.5)
            params["r"] = rng.uniform(0.5, _r_max(params["nbar"]))
            path = _write(os.path.join(workdir, f"point{k:03d}.conf"), _config_text(params))
            for command in ("qfi", "sensitivity"):
                self.items.append((command, path, params))
        self.setup_paths = [item[1] for item in self.items[::2]]

    def unit(self, i):
        calls = []
        for j in range(i * self.BATCH, (i + 1) * self.BATCH):
            command, path, params = self.items[j % len(self.items)]
            calls.append((command, path, params) + _call_cli([command, "--config", path]))
        seconds = [c[3] for c in calls]
        return Unit(len(calls), sum(seconds), seconds, calls)

    def check(self, unit, tally):
        for command, path, params, _, code, text in unit.outputs:
            where = f"{command} {os.path.basename(path)}"
            tally.attempted += 1
            tally.rows_total += 1
            tally.rows_evaluated += 1
            printed = {}
            for line in text.splitlines():
                key, sep, value = line.partition(" = ")
                if sep:
                    printed[key] = float(value)
            expected = {"qfi": ("H_numeric", "H_closed"),
                        "sensitivity": ("F0", "mean_S", "var_S", "H_numeric")}[command]
            if code != 0 or set(printed) != set(expected):
                tally.fail(f"{where}: exit {code}, printed {sorted(printed)}")
                continue
            if command == "qfi":
                closed = metrology.qfi_closed_form(_build(params), "exact")
                if _rel(printed["H_closed"], closed) >= 1e-12:
                    tally.fail(f"{where}: H_closed {printed['H_closed']!r} != {closed!r}")
                    continue
            _physics_referee(tally, where, params, printed["H_numeric"], printed.get("F0"))


class GwGrid:
    """A large ``[gw]`` sweep over an n0 x r_pumped grid with JSON output.

    Each row is about 15 us of gw physics, so sweep bookkeeping and emit
    dominate; pipeline and metrology are never reached.
    """

    name = "gw_grid"
    N0_POINTS = 200
    R_POINTS = 100

    def __init__(self, rng, workdir):
        delta = rng.uniform(0.05, 0.2)
        r_lo = rng.uniform(0.5, 1.5)
        r_hi = r_lo + rng.uniform(1.0, 1.5)
        # the smallest pump keeps side/pump <= delta / 1.5 at the largest r, so every row is valid
        n0_lo = 1.5 * 2.0 * math.sinh(r_hi) ** 2 / delta * 10.0 ** rng.uniform(0.0, 1.0)
        n0_hi = n0_lo * 10.0 ** rng.uniform(1.0, 3.0)
        self.params = {"n0": n0_lo, "r_original": rng.uniform(1.0, 4.0),
                       "r_pumped": r_lo, "strength": rng.uniform(0.5, 2.0), "delta": delta}
        text = "[gw]\n" + "\n".join(f"{k} = {v!r}" for k, v in self.params.items()) + "\n" \
            + f"[sweep]\nn0 = linspace {n0_lo!r} {n0_hi!r} {self.N0_POINTS}\n" \
            + f"r_pumped = linspace {r_lo!r} {r_hi!r} {self.R_POINTS}\n"
        self.path = _write(os.path.join(workdir, "gw.conf"), text)
        self.out = os.path.join(workdir, "gw.json")
        self.setup_paths = [self.path]
        self.rows = self.N0_POINTS * self.R_POINTS
        self._reference = None

    def unit(self, i):
        seconds, code, text = _call_cli(["sweep", "--config", self.path, "--out", self.out,
                                         "--format", "json"])
        return Unit(self.rows, seconds, [seconds], (code, text))

    def _reference_table(self):
        if self._reference is None:
            spec = sweep.parse_config(self.path)
            columns = list(sweep.sweeps_names(spec.sweeps)) + list(sweep.GW_COLUMNS)
            rows = sweep.run_sweep(spec)
            self._reference = (columns, np.array(
                [[np.nan if r[k] is None else float(f"{r[k]:.12e}") for k in columns[:-1]]
                 for r in rows]))
        return self._reference

    def check(self, unit, tally):
        code, text = unit.outputs
        tally.attempted += self.rows
        tally.rows_total += self.rows
        tally.rows_evaluated += self.rows
        if code != 0:
            tally.failed += self.rows
            tally.messages.append(f"gw sweep exited {code}: {text.strip()[-200:]}")
            return
        tally.emit_bytes += os.path.getsize(self.out)
        tally.emitted_rows += self.rows
        with open(self.out, encoding="utf-8") as fh:
            records = json.load(fh)
        columns, reference = self._reference_table()
        if len(records) != self.rows or any(list(rec) != columns for rec in records[:1]):
            tally.failed += self.rows
            tally.messages.append(f"{self.out}: record count or keys do not match the grid")
            return
        got = np.array([[rec[k] if rec[k] is not None else np.nan for k in columns[:-1]]
                        for rec in records])
        errors = np.array([rec["error"] is not None for rec in records])
        tally.error_rows += int(errors.sum())
        n0, r_p, h_orig, h_pump, ratio, theta, theta_max = got.T
        b, r_o, delta = self.params["strength"], self.params["r_original"], self.params["delta"]
        # independent referees: the scheme formulas and the defining property of
        # theta_max (side/pump population ratio after the tritter equals delta)
        n_side = 2.0 * np.sinh(r_p) ** 2
        c2, s2 = np.cos(theta_max) ** 2, np.sin(theta_max) ** 2
        post_ratio = (n0 * s2 + 0.5 * n_side * (1.0 + c2)) / (n0 * c2 + 0.5 * n_side * s2)
        h_orig_ref = 0.25 * b ** 2 * (1.0 + np.sinh(2.0 * r_o) ** 2)
        h_pump_ref = 0.25 * b ** 2 * (1.0 + np.sinh(2.0 * r_p) ** 2) \
            + 0.5 * b ** 2 * theta ** 2 * n0 * n_side
        bad = errors | ~np.all(got == reference, axis=1)
        for values, ref in ((h_orig, h_orig_ref), (h_pump, h_pump_ref), (ratio, h_pump / h_orig),
                            (theta, theta_max), (post_ratio, delta)):
            bad |= ~(np.abs(values - ref) <= GW_RTOL * np.abs(ref))
        for index in np.flatnonzero(bad)[:5]:
            tally.messages.append(f"gw row {index}: fails its referee: {records[index]}")
        tally.failed += int(bad.sum())


def _kronecker(k, shift, dims):
    """k-th point of a randomly shifted additive-recurrence sequence in [0, 1)^dims.

    With a uniformly random shift every coordinate is uniformly distributed
    (as criterion 7's draws are), while the first few points already spread
    evenly over the range, so the cost of the parameter sets a short run
    reaches does not swing with the seed.
    """
    phi = 2.0
    for _ in range(30):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = np.array([phi ** -(d + 1) for d in range(dims)])
    return (shift + k * alpha) % 1.0


class FockReferee:
    """The ``validate`` suite plus seeded 3-mode Fock preparations over a cutoff ladder.

    A unit is one ``oracle_checks()`` run and one parameter set prepared at
    every rung of the ladder (18^3 to 40^3 basis states, 93 KB to 1 MB state
    vectors).  Parameters follow acceptance criterion 7's ranges; at the
    worst corner of those ranges every rung passes the leakage bound.
    """

    name = "fock_referee"
    LADDER = (18, 24, 30, 35, 40)
    EPS = 0.3

    def __init__(self, rng, workdir):
        self.shift = rng.uniform(0.0, 1.0, 3)
        self.phases = rng.uniform(0.0, TWO_PI, (1024, 4))
        self.setup_paths = []
        self._gaussian = {}

    def params(self, k):
        u = _kronecker(k, self.shift, 3)
        th0, vsq, vt, phic = self.phases[k % len(self.phases)]
        return {"kind": ("squeezing", "mode_mixing")[k % 2], "r": 0.2 + 0.4 * u[0],
                "alpha_sq": 0.5 + 1.5 * u[1], "theta": 0.1 + 0.4 * u[2],
                "th0": th0, "vsq": vsq, "vt": vt, "phic": phic}

    def _prepare(self, p, cutoff):
        mix = fock.TwoModeSqueeze if p["kind"] == "squeezing" else fock.ModeMix
        channel = mix((1, 2), self.EPS / 4.0, p["phic"])
        ops = [fock.TwoModeSqueeze((1, 2), p["r"], p["vsq"]),
               fock.Displace(0, cmath.rect(math.sqrt(p["alpha_sq"]), p["th0"])),
               fock.Tritter(p["theta"], p["vt"]), channel,
               fock.Tritter(-p["theta"], p["vt"]), fock.TwoModeSqueeze((1, 2), -p["r"], p["vsq"])]
        nbar = p["alpha_sq"] + 2.0 * math.sinh(p["r"]) ** 2
        psi, leak = fock.prepare_state_fock(ops, cutoff, n_modes=3)
        moments = fock.number_moments_fock(psi, cutoff, 3, modes=(1, 2))
        heterodyne = fock.number_diff_moments_fock(psi, cutoff, 3, (1, 2))
        psi_pre, leak_pre = fock.pipeline_state_fock(nbar, p["th0"], p["r"], p["vsq"],
                                                     p["theta"], p["vt"], cutoff)
        gen = fock.channel_generator(fock.FockSpace(3, cutoff), p["kind"], 1.0, p["phic"], (1, 2))
        return moments, heterodyne, fock.generator_variance(psi_pre, gen), max(leak, leak_pre)

    def unit(self, i):
        start = time.perf_counter()
        checks = validation.oracle_checks()
        validate_s = time.perf_counter() - start
        p = self.params(i)
        start = time.perf_counter()
        results = [(cutoff, self._prepare(p, cutoff)) for cutoff in self.LADDER]
        ladder_s = time.perf_counter() - start
        return Unit(len(self.LADDER), ladder_s, [validate_s], (i, checks, results))

    def _gaussian_reference(self, k):
        if k not in self._gaussian:
            p = self.params(k)
            nbar = p["alpha_sq"] + 2.0 * math.sinh(p["r"]) ** 2
            cfg = pipeline.InterferometerConfig(
                nbar=nbar, r=p["r"], theta=p["theta"],
                channel=ChannelSpec(p["kind"], 1.0, p["phic"], self.EPS),
                pump_phase=p["th0"], squeeze_phase=p["vsq"], tritter_phase=p["vt"])
            side = states.reduce_to_modes(pipeline.run_interferometer(cfg), (1, 2))
            self._gaussian[k] = (metrology.number_sum_moments(side),
                                 metrology.heterodyne_moments(side), metrology.qfi_numeric(cfg))
        return self._gaussian[k]

    def check(self, unit, tally):
        k, checks, results = unit.outputs
        tally.validate_calls += 1
        tally.attempted += len(checks)
        for name, passed, detail in checks:
            tally.checks_passed += bool(passed)
            if not passed:
                tally.fail(f"validate: {name}: {detail}")
        if len(checks) != 10:
            tally.fail(f"validate ran {len(checks)} checks, expected 10")
        moments_g, heterodyne_g, h_g = self._gaussian_reference(k)
        for cutoff, (moments, heterodyne, h_fock, leak) in results:
            tally.attempted += 1
            worst = max([_rel(g, f) for g, f in zip(moments_g, moments)]
                        + [abs(g - f) / max(abs(f), 1e-6)
                           for g, f in zip(heterodyne_g, heterodyne)]
                        + [_rel(h_g, h_fock)])
            if worst >= ORACLE_RTOL or leak >= LEAKAGE_LIMIT:
                tally.fail(f"fock set {k} cutoff {cutoff}: worst rel {worst:.2e}, "
                           f"leakage {leak:.1e}")


WORKLOADS = {w.name: w for w in (ThetaSweep, SinglePoint, GwGrid, FockReferee)}
