import csv
import io
import json
import os
import pathlib

import mpmath
import numpy as np
import pytest

import pumpedsu11
from pumpedsu11 import ChannelSpec, InterferometerConfig
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


def _mp_matrix(pump, diag, upper, lower):
    """6x6: ``pump`` I on the pump, [[diag I, upper], [lower, diag I]] on the side modes."""
    m = mpmath.zeros(6)
    m[0, 0] = m[1, 1] = pump
    for i in range(2, 6):
        m[i, i] = diag
    for i in (0, 1):
        for j in (0, 1):
            m[2 + i, 4 + j], m[4 + i, 2 + j] = upper[i][j], lower[i][j]
    return m


def _mp_channel(kind, x, phase, diag):
    """The side-mode element of ``kind`` at argument ``x``, with diagonal entry ``diag``."""
    c, s = mpmath.cos(phase), mpmath.sin(phase)
    if kind == "squeezing":  # x times the reflection of the squeezing phase
        block = ((x * c, x * s), (x * s, -x * c))
        return _mp_matrix(1, diag, block, block)
    if kind == "mode_mixing":  # x R and -x R^T for the rotation R of the phase
        return _mp_matrix(1, diag, ((x * c, x * s), (-x * s, x * c)),
                          ((-x * c, x * s), (-x * s, -x * c)))
    m = _mp_matrix(1, diag, ((0, 0), (0, 0)), ((0, 0), (0, 0)))  # phase: a rotation by x
    m[2, 3] = m[4, 5] = x
    m[3, 2] = m[5, 4] = -x
    return m


def mp_referee(config, eps0, dps=60):
    """H, F0, <S>, Var(S) and the slopes of <S> and Var(S) at strain ``eps0``, in
    ``dps``-digit arithmetic through the output-frame pipeline; a dict of floats.

    The independent referee of the metrology kernel.  Every element is filled
    from its formula in mpmath: the source squeezer, the tritter, the channel
    and its generator K.  H is taken on the pre-measurement state at zero
    strain from its exact tangent (K d, K sigma + sigma K^T), with sigma^-1 by
    an LU inverse, so it referees the phase channel too, which has no closed form.
    The moments are those of the side modes of the output state S^-1 C S
    (d, sigma) of the input (d, sigma = I), and their slopes come from the
    tangent pushed through S^-1.
    """
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        ch = config.channel
        r, theta, tp = mpf(config.r), mpf(config.theta), mpf(config.tritter_phase)
        n0 = mpf(config.nbar) - 2 * mpmath.sinh(r) ** 2
        amp = 2 * mpmath.sqrt(n0)
        d_in = mpmath.matrix([amp * mpmath.cos(config.pump_phase),
                              amp * mpmath.sin(config.pump_phase), 0, 0, 0, 0])
        squeezer = _mp_channel("squeezing", mpmath.sinh(r), mpf(config.squeeze_phase),
                               mpmath.cosh(r))
        mm = (mpmath.cos(theta) - 1) / 2
        mixer = _mp_matrix(mpmath.cos(theta), mpmath.cos(theta / 2) ** 2,
                           ((mm, 0), (0, mm)), ((mm, 0), (0, mm)))
        f = mpmath.sin(theta) / mpmath.sqrt(2)
        a, b = f * mpmath.sin(tp), f * mpmath.cos(tp)
        for j in (2, 4):
            mixer[0, j], mixer[0, j + 1], mixer[1, j], mixer[1, j + 1] = a, b, -b, a
            mixer[j, 0], mixer[j, 1], mixer[j + 1, 0], mixer[j + 1, 1] = -a, b, -b, -a
        S = mixer * squeezer
        strength, phase = mpf(ch.strength), mpf(ch.phase)
        if ch.kind == "phase":
            x = mpf(eps0) * strength
            C = _mp_channel("phase", mpmath.sin(x / 2), 0, mpmath.cos(x / 2))
            K = _mp_channel("phase", strength / 2, 0, 0)
        else:
            x = mpf(eps0) * strength / 4
            diag = mpmath.cosh(x) if ch.kind == "squeezing" else mpmath.cos(x)
            odd = mpmath.sinh(x) if ch.kind == "squeezing" else mpmath.sin(x)
            C = _mp_channel(ch.kind, odd, phase, diag)
            K = _mp_channel(ch.kind, strength / 4, phase, 0)
        K[0, 0] = K[1, 1] = 0

        d, sigma = S * d_in, S * S.T
        k_sigma = K * sigma
        sigma_dot, d_dot = k_sigma + k_sigma.T, K * d
        inv = mpmath.inverse(sigma)
        ratio = inv * sigma_dot
        h = sum((ratio * ratio)[i, i] for i in range(6)) / 4 + (d_dot.T * inv * d_dot)[0]

        s_inv = mpmath.inverse(S)
        d, sigma = C * d, C * sigma * C.T
        k_sigma = K * sigma
        d_dot, sigma_dot = s_inv * (K * d), s_inv * (k_sigma + k_sigma.T) * s_inv.T
        d, sigma = s_inv * d, s_inv * sigma * s_inv.T
        # the side modes' number sum: <S> = [Tr sigma + |d|^2 - 4]/4,
        # Var S = [Tr sigma^2 + 2 d^T sigma d - 4]/8, and their strain slopes
        d, d_dot = d[2:6], d_dot[2:6]
        sigma, sigma_dot = sigma[2:6, 2:6], sigma_dot[2:6, 2:6]
        tr = lambda m: sum(m[i, i] for i in range(4))  # noqa: E731
        dot = lambda u, v: (u.T * v)[0]  # noqa: E731
        mean = (tr(sigma) + dot(d, d) - 4) / 4
        var = (tr(sigma * sigma) + 2 * dot(d, sigma * d) - 4) / 8
        d_mean = (tr(sigma_dot) + 2 * dot(d, d_dot)) / 4
        d_var = (tr(sigma * sigma_dot) + 2 * dot(d_dot, sigma * d)
                 + dot(d, sigma_dot * d)) / 4
        return {"H": float(h), "F0": float(d_mean ** 2 / var), "mean_S": float(mean),
                "var_S": float(var), "d_mean": float(d_mean), "d_var": float(d_var)}


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
