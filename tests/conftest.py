import os
import pathlib

import numpy as np
import pytest

import pumpedsu11
from pumpedsu11 import ChannelSpec, InterferometerConfig

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


def richardson(f, x0, h=1e-4):
    """Central difference of ``f`` at ``x0`` with one Richardson extrapolation level.

    Error O(h^4) plus roundoff O(u |f| / h); the tests use it only as an
    independent referee for the exact strain tangents in ``metrology``.
    """
    coarse = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    fine = (f(x0 + h / 2.0) - f(x0 - h / 2.0)) / h
    return (4.0 * fine - coarse) / 3.0
