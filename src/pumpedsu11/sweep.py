"""Plain-text run configuration, parameter grids, and table output.

The config format is line-oriented ``key = value`` with optional sections:

    channel = squeezing          # squeezing | mode_mixing | phase
    strength = 1.0
    r = 1.0
    nbar = 1e6
    theta = 0.3

    [sweep]
    theta = linspace 0 1.5707963267948966 50
    r = values 0.5 1.0 2.0

    [outputs]
    quantities = H_numeric H_closed F0 moments theta_t

    [gw]                         # alternative base for scheme comparisons
    n0 = 1e6
    r_original = 4.2

Unknown keys are hard errors.  All physics parameters live in the file so a
run is reproducible from the file alone; only the output destination may come
from the environment.

An interferometer sweep validates each grid point on its own (a depleted pump
or an out-of-range angle becomes that row's error) and then evaluates all
valid points in one batched call of :func:`metrology.evaluate`; a ``[gw]``
sweep evaluates its closed-form comparison row by row.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .gw import compare_schemes
from .metrology import QUANTITY_COLUMNS, evaluate
from .pipeline import InterferometerConfig

__all__ = [
    "ConfigError",
    "SweepSpec",
    "parse_config",
    "run_sweep",
    "emit",
    "DEFAULTS",
    "INTERFEROMETER_COLUMNS",
    "GW_COLUMNS",
]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


DEFAULTS = {
    "strength": 1.0,
    "channel_phase": 0.0,
    "epsilon": 0.0,
    "nbar": 1e6,
    "pump_phase": 0.0,
    "r": 0.0,
    "squeeze_phase": 0.0,
    "theta": 0.0,
    "tritter_phase": 0.0,
}
GW_DEFAULTS = {
    "n0": 1e6,
    "r_original": None,  # required
    "r_pumped": None,
    "strength": 1.0,
    "delta": 0.1,
    "theta_sq": None,
}

BASE_KEYS = ("channel",) + tuple(DEFAULTS)
SWEEPABLE_KEYS = tuple(DEFAULTS) + ("eps0",)
GW_SWEEPABLE_KEYS = ("n0", "r_original", "r_pumped", "strength", "delta", "theta_sq")
QUANTITIES = tuple(QUANTITY_COLUMNS)  # H_numeric H_closed F0 moments theta_t

INTERFEROMETER_COLUMNS = ("H_numeric", "H_closed", "F0", "mean_S", "var_S", "theta_t", "error")
GW_COLUMNS = ("qfi_original", "qfi_pumped", "ratio", "theta", "theta_max", "error")

GRID_CAP = 10 ** 6


@dataclass(frozen=True)
class SweepSpec:
    """A validated run: base parameters, swept axes, and requested outputs."""

    base: dict
    sweeps: tuple = ()          # ((name, tuple_of_values), ...) in file order
    quantities: tuple = QUANTITIES
    kind: str = "interferometer"  # or "gw"

    def grid_size(self) -> int:
        size = 1
        for _, values in self.sweeps:
            size *= len(values)
        return size


def _parse_number(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {token!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {token!r}")
    return value


def _parse_sweep_values(value: str, where: str) -> tuple:
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{where}: empty sweep specification")
    if tokens[0] == "linspace":
        if len(tokens) != 4:
            raise ConfigError(f"{where}: linspace takes 'linspace <min> <max> <count>'")
        lo = _parse_number(tokens[1], where)
        hi = _parse_number(tokens[2], where)
        count = int(_parse_number(tokens[3], where))
        if count < 1:
            raise ConfigError(f"{where}: sweep count must be >= 1, got {count}")
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    if tokens[0] == "values":
        tokens = tokens[1:]
        if not tokens:
            raise ConfigError(f"{where}: 'values' needs at least one value")
    return tuple(_parse_number(t, where) for t in tokens)


def parse_config(path) -> SweepSpec:
    """Parse and validate a run configuration file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    section = None
    base: dict = {}
    gw: dict = {}
    sweeps: list = []
    quantities = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("sweep", "outputs", "gw"):
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            if key not in BASE_KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            base[key] = value if key == "channel" else _parse_number(value, where)
        elif section == "sweep":
            if key in sweeps_names(sweeps):
                raise ConfigError(f"{where}: parameter {key!r} swept twice")
            sweeps.append((key, _parse_sweep_values(value, where)))
        elif section == "outputs":
            if key != "quantities":
                raise ConfigError(f"{where}: unknown key {key!r} in [outputs]")
            quantities = tuple(value.replace(",", " ").split())
            for q in quantities:
                if q not in QUANTITIES + ("comparison",):
                    raise ConfigError(f"{where}: unknown quantity {q!r}")
        else:  # gw
            if key not in GW_DEFAULTS:
                raise ConfigError(f"{where}: unknown key {key!r} in [gw]")
            gw[key] = _parse_number(value, where)

    if gw:
        if base:
            raise ConfigError(f"{path}: give either interferometer keys or a [gw] "
                              "section, not both")
        params = dict(GW_DEFAULTS)
        params.update(gw)
        if params["r_original"] is None:
            raise ConfigError(f"{path}: [gw] section requires r_original")
        for name, _ in sweeps:
            if name not in GW_SWEEPABLE_KEYS:
                raise ConfigError(f"{path}: cannot sweep {name!r} in a [gw] run")
        spec = SweepSpec(base=params, sweeps=tuple(sweeps),
                         quantities=("comparison",), kind="gw")
    else:
        if "channel" not in base:
            raise ConfigError(f"{path}: missing required key 'channel'")
        params = dict(DEFAULTS)
        params.update(base)
        for name, _ in sweeps:
            if name not in SWEEPABLE_KEYS:
                raise ConfigError(f"{path}: cannot sweep unknown parameter {name!r}")
        _build_config(params)  # validate the base point now, with file context
        spec = SweepSpec(base=params, sweeps=tuple(sweeps),
                         quantities=quantities or QUANTITIES)
    if spec.grid_size() > GRID_CAP:
        raise ConfigError(f"{path}: sweep grid has {spec.grid_size()} points, "
                          f"cap is {GRID_CAP}")
    return spec


def sweeps_names(sweeps) -> tuple:
    return tuple(name for name, _ in sweeps)


def _build_config(params: dict) -> InterferometerConfig:
    try:
        channel = ChannelSpec(kind=params["channel"], strength=params["strength"],
                              phase=params["channel_phase"], epsilon=params["epsilon"])
        return InterferometerConfig(
            nbar=params["nbar"], r=params["r"], theta=params["theta"], channel=channel,
            pump_phase=params["pump_phase"], squeeze_phase=params["squeeze_phase"],
            tritter_phase=params["tritter_phase"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _gw_row(spec: SweepSpec, overrides: dict) -> dict:
    row = dict(overrides)
    errors = []
    for col in GW_COLUMNS[:-1]:
        row[col] = None
    try:
        params = dict(spec.base)
        params.update(overrides)
        cmp = compare_schemes(n0=params["n0"], r_original=params["r_original"],
                              r_pumped=params["r_pumped"], strength=params["strength"],
                              delta=params["delta"], theta_sq=params["theta_sq"])
        row.update(qfi_original=cmp.qfi_original, qfi_pumped=cmp.qfi_pumped,
                   ratio=cmp.ratio, theta=cmp.theta, theta_max=cmp.theta_max)
    except Exception as exc:
        errors.append(str(exc))
    row["error"] = "; ".join(errors)
    return row


def run_sweep(spec: SweepSpec, eps0: float = 1e-3) -> list:
    """Evaluate the run configuration over its full grid; one row dict per point.

    Rows come back in lexicographic grid order (first swept name outermost).
    Each interferometer point is validated on its own, so a depleted or
    out-of-range point gets its configuration error; all valid points then go
    to :func:`metrology.evaluate` as one batch.  Failures are recorded in the
    row's ``error`` cell and never abort the sweep.
    """
    names = sweeps_names(spec.sweeps)
    axes = [values for _, values in spec.sweeps] or [(None,)]
    points = [dict(zip(names, combo)) if names else {}
              for combo in itertools.product(*axes)]
    if spec.kind == "gw":
        return [_gw_row(spec, p) for p in points]

    rows, valid, configs, eps0s = [], [], [], []
    for point in points:
        row = dict(point)
        row.update(dict.fromkeys(INTERFEROMETER_COLUMNS[:-1]))
        row["error"] = ""
        rows.append(row)
        params = dict(spec.base)
        params.update({k: v for k, v in point.items() if k != "eps0"})
        try:
            configs.append(_build_config(params))
        except ConfigError as exc:
            row["error"] = str(exc)
            continue
        valid.append(row)
        eps0s.append(point.get("eps0", eps0))
    values, errors = evaluate(configs, eps0s, [q for q in spec.quantities if q in QUANTITIES])
    for k, row in enumerate(valid):
        for column, column_values in values.items():
            row[column] = column_values[k]
        row["error"] = "; ".join(f"{quantity}: {exc}" for quantity, exc in errors[k])
    return rows


def _columns(spec_or_rows) -> list:
    if isinstance(spec_or_rows, SweepSpec):
        names = list(sweeps_names(spec_or_rows.sweeps))
        tail = GW_COLUMNS if spec_or_rows.kind == "gw" else INTERFEROMETER_COLUMNS
        return names + [c for c in tail if c not in names]
    # infer from the first row, preserving insertion order
    return list(spec_or_rows[0].keys())


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.12e}"


def emit(table: list, fmt: str = "csv", path=None, spec: SweepSpec | None = None) -> str:
    """Serialize a result table to CSV or JSON; returns the text, writes ``path``.

    Numeric cells carry 13 significant digits in both formats, so a CSV/JSON
    pair of the same table parses to identical values and a written table
    round-trips bit-for-bit at that precision.
    """
    if not table:
        raise ValueError("refusing to emit an empty table")
    columns = _columns(spec if spec is not None else table)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in table:
            writer.writerow([_format_cell(row.get(c)) for c in columns])
        text = buf.getvalue()
    elif fmt == "json":
        records = []
        for row in table:
            rec = {}
            for c in columns:
                v = row.get(c)
                rec[c] = float(f"{v:.12e}") if isinstance(v, (int, float)) else (v or None)
            records.append(rec)
        text = json.dumps(records, indent=1) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
