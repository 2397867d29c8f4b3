import csv
import io
import json
import os
import pathlib

import numpy as np
import pytest

import pumpedsu11
from pumpedsu11 import ChannelSpec, InterferometerConfig, pre_measurement_state
from pumpedsu11.metrology import _qfi, _slopes
from pumpedsu11.sweep import GW_COLUMNS, INTERFEROMETER_COLUMNS

PACKAGE_ROOT = str(pathlib.Path(pumpedsu11.__file__).resolve().parent.parent)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def child_env():
    """Environment for a child interpreter that imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


def random_config(rng, kind=None, nbar_range=(10.0, 1e6), r_max=2.0,
                  strength_range=(0.25, 4.0)):
    """Draw a valid interferometer configuration, resampling depleted pumps."""
    if kind is None:
        kind = rng.choice(["squeezing", "mode_mixing"])
    while True:
        r = rng.uniform(0.0, r_max)
        nbar = np.exp(rng.uniform(np.log(nbar_range[0]), np.log(nbar_range[1])))
        if nbar > 2.0 * np.sinh(r) ** 2 * 1.05 + 0.5:
            break
    return InterferometerConfig(
        nbar=nbar, r=r, theta=rng.uniform(0.0, np.pi / 2),
        channel=ChannelSpec(str(kind), rng.uniform(*strength_range),
                            rng.uniform(0.0, 2 * np.pi)),
        pump_phase=rng.uniform(0.0, 2 * np.pi),
        squeeze_phase=rng.uniform(0.0, 2 * np.pi),
        tritter_phase=rng.uniform(0.0, 2 * np.pi))


def pipeline_qfi(config):
    """H_numeric through the object pipeline (cached states, a checked
    SymplecticOp per element): the referee of the stacked kernel, whose value
    and error text it must give bit for bit."""
    state = pre_measurement_state(config, 0.0)
    value = _qfi(config.channel.generator(), state.d, state.sigma)
    if not np.isfinite(value):
        raise FloatingPointError(f"QFI evaluated to {float(value)}")
    return float(value)


def pipeline_f0(config, eps0):
    """F0 through the object pipeline, with its checks; see :func:`pipeline_qfi`."""
    if eps0 == 0:
        raise ValueError("number-sum signal is stationary at zero strain; use eps0 > 0")
    pre = pre_measurement_state(config, eps0)
    var, d_mean, _ = (float(v) for v in _slopes(
        config.channel.generator(), config.reverse_half.matrix[2:], pre.d, pre.sigma))
    if not np.isfinite(d_mean) or d_mean == 0:
        raise FloatingPointError(
            "vanishing signal derivative: measurement is insensitive at this point")
    if var <= 0:
        raise FloatingPointError(f"non-positive signal variance {var!r}")
    square = d_mean * d_mean
    delta_sq = var / square if square else np.inf  # var > 0 here
    if square == 0 or delta_sq == 0:
        raise ZeroDivisionError(f"degenerate ratio Var(S)/(d<S>/d eps)^2 = {delta_sq!r} "
                                f"(Var(S) = {var!r}, (d<S>/d eps)^2 = {square!r})")
    return 1.0 / delta_sq


def richardson(f, x0, h=1e-4):
    """Central difference of ``f`` at ``x0`` with one Richardson extrapolation level.

    Error O(h^4) plus roundoff O(u |f| / h); the tests use it only as an
    independent referee for the exact strain tangents in ``metrology``.
    """
    coarse = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    fine = (f(x0 + h / 2.0) - f(x0 - h / 2.0)) / h
    return (4.0 * fine - coarse) / 3.0


def emit_rowwise(table, fmt="csv", spec=None):
    """Row-by-row CSV/JSON serializer: the referee for ``sweep.emit``'s column path.

    ``table`` is a list of row dicts; the columns come from ``spec`` (swept
    names, then the fixed columns of its kind) or else from the first row.
    """
    if spec is not None:
        names = [name for name, _ in spec.sweeps]
        tail = GW_COLUMNS if spec.kind == "gw" else INTERFEROMETER_COLUMNS
        columns = names + [c for c in tail if c not in names]
    else:
        columns = list(table[0].keys())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in table:
            cells = []
            for c in columns:
                v = row.get(c)
                cells.append("" if v is None else v if isinstance(v, str) else f"{v:.12e}")
            writer.writerow(cells)
        return buf.getvalue()
    records = []
    for row in table:
        rec = {}
        for c in columns:
            v = row.get(c)
            rec[c] = float(f"{v:.12e}") if isinstance(v, (int, float)) else (v or None)
        records.append(rec)
    return json.dumps(records, indent=1) + "\n"
