import gc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pumpedsu11 import (ChannelSpec, GwDetectorParams, InterferometerConfig,
                        channel_strength, compare_schemes, coupling_constant,
                        max_tritter_angle, original_scheme_qfi, phonon_xi,
                        pump_depletion, pumped_scheme_qfi, qcrb_sensitivity,
                        qfi_closed_form)
from pumpedsu11.gw import HBAR, compare_grid
from pumpedsu11.pipeline import _side_population
from pumpedsu11.sweep import GW_COLUMNS, SweepSpec, run_sweep


def _params(**kw):
    defaults = dict(mode_n=2, mode_m=1, omega_n=2 * np.pi * 2e3, omega_m=2 * np.pi * 1e3,
                    sound_speed=1e-2, atom_mass=1.443e-25, interaction_time=1.0,
                    gw_frequency=2 * np.pi * 3e3, strain=1e-18, resonance="sum")
    defaults.update(kw)
    return GwDetectorParams(**defaults)


def test_phonon_xi_definition():
    mass, cs = 1.0e-25, 1e-3
    omega = mass * cs ** 2 / HBAR
    with pytest.warns(UserWarning):
        assert phonon_xi(mass, cs, omega) == pytest.approx(1.0, rel=1e-12)
    with pytest.warns(UserWarning):
        assert phonon_xi(mass, cs, 2 * omega) == pytest.approx(0.5, rel=1e-12)
    assert phonon_xi(mass, cs, omega / 100.0) == pytest.approx(100.0, rel=1e-12)


def test_phonon_xi_rubidium_example():
    with pytest.warns(UserWarning):
        xi = phonon_xi(1.443e-25, 1e-3, 2 * np.pi * 1e3)
    assert xi == pytest.approx(0.218, abs=5e-4)
    # dimensional consistency: doubling the frequency halves xi
    with pytest.warns(UserWarning):
        assert phonon_xi(1.443e-25, 1e-3, 4 * np.pi * 1e3) == pytest.approx(xi / 2, rel=1e-12)


def test_phonon_xi_rejects_zero_frequency():
    with pytest.raises(ValueError):
        phonon_xi(1e-25, 1e-3, 0.0)


def test_coupling_constant_values():
    assert coupling_constant(2, 1, 1.0, 1.0, "sum") == pytest.approx(5.0, rel=1e-14)
    assert coupling_constant(2, 1, 1.0, 1.0, "difference") == pytest.approx(5.0 / 9.0, rel=1e-14)
    with pytest.raises(ValueError):
        coupling_constant(2, 2, 1.0, 1.0, "sum")


def test_channel_strength_composition():
    params = _params()
    spec = channel_strength(params)
    assert spec.kind == "squeezing"
    assert spec.epsilon == params.strain
    xi_n = params.atom_mass * params.sound_speed ** 2 / (HBAR * params.omega_n)
    xi_m = params.atom_mass * params.sound_speed ** 2 / (HBAR * params.omega_m)
    c = xi_n * xi_m * 5.0
    assert spec.strength == pytest.approx(np.sqrt(params.omega_n * params.omega_m) * c, rel=1e-12)
    # channel argument equals strain * strength / 4
    assert spec.channel_argument() == pytest.approx(0.25 * params.strain * spec.strength, rel=1e-12)


def test_channel_strength_linear_in_time():
    one = channel_strength(_params(interaction_time=1.0))
    two = channel_strength(_params(interaction_time=2.0))
    assert two.strength == pytest.approx(2.0 * one.strength, rel=1e-14)


def test_difference_resonance_maps_to_mode_mixing():
    spec = channel_strength(_params(resonance="difference",
                                    gw_frequency=2 * np.pi * 1e3))
    assert spec.kind == "mode_mixing"


def test_resonance_violation_rejected():
    with pytest.raises(ValueError):
        _params(gw_frequency=2 * np.pi * 3.1e3)


def test_original_scheme_qfi_values():
    assert original_scheme_qfi(0.0) == pytest.approx(0.25, rel=1e-14)
    h = original_scheme_qfi(4.2)
    assert h == pytest.approx(1236025.291156115, rel=1e-12)
    assert h == pytest.approx(1.235e6, rel=2e-3)
    n_p = 2 * np.sinh(4.2) ** 2
    assert h == pytest.approx(0.25 * (1.0 + n_p * (n_p + 2.0)), rel=1e-12)


def test_original_scheme_matches_bare_su11_closed_form():
    for r in (0.3, 1.0, 2.5):
        cfg = InterferometerConfig(
            nbar=2 * np.sinh(r) ** 2 + 1e7, r=r, theta=0.0,
            channel=ChannelSpec("squeezing", 1.0, 0.2),
            squeeze_phase=0.2 + np.pi / 2)
        # one formula: the squeezing "theta_zero" regime calls original_scheme_qfi
        assert original_scheme_qfi(r, 0.2 + np.pi / 2, 0.2) \
            == qfi_closed_form(cfg, "theta_zero")


def test_qcrb_sensitivity_scaling():
    assert qcrb_sensitivity(1.0, 1, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    base = qcrb_sensitivity(2.0, 3, 10.0, 0.5)
    assert qcrb_sensitivity(2.0, 3, 40.0, 0.5) == pytest.approx(base / 2, rel=1e-12)
    assert qcrb_sensitivity(8.0, 3, 10.0, 0.5) == pytest.approx(base / 2, rel=1e-12)
    assert qcrb_sensitivity(1.2349e6, 1, 86400.0, 1.0) == pytest.approx(3.06e-6, rel=1e-2)
    with pytest.raises(ValueError):
        qcrb_sensitivity(1.0, 1, 0.0, 1.0)


def test_compare_schemes_parity_point():
    cmp = compare_schemes(1e6, r_original=4.2, r_pumped=2.0, theta_sq=0.094)
    assert abs(cmp.ratio - 1.0) < 0.01
    assert cmp.qfi_pumped == pytest.approx(cmp.qfi_original, rel=0.01)


def test_compare_schemes_boost_point():
    cmp = compare_schemes(1e6, r_original=4.2, theta_sq=0.092)
    assert 81.0 <= cmp.ratio <= 85.0


def test_compare_schemes_reduces_to_original_at_zero_angle():
    cmp = compare_schemes(1e6, r_original=4.2, theta_sq=0.0)
    assert cmp.ratio == 1.0
    assert cmp.qfi_pumped == cmp.qfi_original


def test_compare_schemes_defaults_to_angle_bound():
    cmp = compare_schemes(1e6, r_original=4.2, r_pumped=2.0)
    gamma = cmp.n_side_pumped / 1e6
    assert cmp.theta == pytest.approx(max_tritter_angle(gamma, 0.1), rel=1e-12)


def test_compare_schemes_rejects_excessive_angle():
    with pytest.raises(ValueError):
        compare_schemes(1e6, r_original=4.2, r_pumped=2.0, theta_sq=0.2)
    # theta^2 may exceed the bound by 2%, no more
    bound = compare_schemes(1e6, r_original=4.2, r_pumped=2.0).theta_max ** 2
    compare_schemes(1e6, r_original=4.2, r_pumped=2.0, theta_sq=1.019 * bound)
    with pytest.raises(ValueError, match="exceeds the undepleted-pump bound"):
        compare_schemes(1e6, r_original=4.2, r_pumped=2.0, theta_sq=1.021 * bound)


def test_compare_schemes_never_worse(rng):
    for _ in range(50):
        r = rng.uniform(0.5, 3.0)
        n_side = 2 * np.sinh(r) ** 2
        n0 = n_side * 10 ** rng.uniform(3, 6)
        theta_max = max_tritter_angle(n_side / n0, 0.1)
        cmp = compare_schemes(n0, r_original=r,
                              theta_sq=rng.uniform(0, theta_max ** 2))
        assert cmp.ratio >= 1.0 - 1e-9


def test_pumped_scheme_qfi_structure():
    n0, r, theta = 1e6, 2.0, 0.1
    gain = 0.5 * theta ** 2 * n0 * 2 * np.sinh(r) ** 2
    assert pumped_scheme_qfi(n0, r, theta) == pytest.approx(
        original_scheme_qfi(r) + gain, rel=1e-12)
    # the gain is the "pumped_limit" regime at the matched config, at optimal
    # phases with nbar = n0 + n; exact (tolerance 0), since both call one
    # formula at the config's own n0 = nbar - n
    n_side = 2 * np.sinh(r) ** 2
    cfg = InterferometerConfig(nbar=n0 + n_side, r=r, theta=theta,
                               channel=ChannelSpec("squeezing", 1.0),
                               squeeze_phase=np.pi / 2, tritter_phase=np.pi / 4)
    matched_n0 = pump_depletion(cfg.nbar, r)[0]
    assert pumped_scheme_qfi(matched_n0, r, theta) \
        == original_scheme_qfi(r) + qfi_closed_form(cfg, "pumped_limit")


def test_compare_schemes_rejects_negative_theta_sq():
    with pytest.raises(ValueError, match="nonnegative"):
        compare_schemes(1e6, r_original=4.2, r_pumped=2.0, theta_sq=-0.01)
    with pytest.raises(ValueError, match="nonnegative"):
        compare_schemes(1e6, r_original=4.2, theta_sq=float("nan"))


def _scalar_row(params):
    """The cells of one gw row, from the one-point grid of compare_schemes."""
    try:
        cmp = compare_schemes(**params)
    except Exception as exc:
        return dict.fromkeys(GW_COLUMNS[:-1]), str(exc)
    return {c: float(getattr(cmp, c)) for c in GW_COLUMNS[:-1]}, ""


def _referee(params):
    """The failing check of one gw row, or None, from the scheme's definitions.

    The checks in compare_grid's documented order: theta_sq >= 0; 0 <= gamma
    <= delta, delta < 1 and cos 2 theta_max in [-1, 1], where theta_max solves
    "side/pump = delta after the tritter" (see _post_tritter_ratio), which is
    linear in x = cos 2 theta; theta_sq <= 1.02 theta_max^2; n0 > 0; and last,
    finite H_orig, H_pump and ratio (see _scheme_qfis).  Returns the start of
    the error text the row must carry.
    """
    n0, delta, theta_sq = np.float64(params["n0"]), params["delta"], params["theta_sq"]
    gamma = _side(params) / n0
    # n0 (s^2 + gamma (3 + x) / 4) = delta n0 (c^2 + gamma (1 - x) / 4), with
    # c^2 = (1 + x)/2 and s^2 = (1 - x)/2, solved for x
    x = (2 * delta + delta * gamma - 2 - 3 * gamma) / (gamma - 2 - 2 * delta + delta * gamma)
    if theta_sq is not None and not theta_sq >= 0:
        return "theta^2 must be nonnegative"
    if not 0 <= gamma <= delta:
        return "need 0 <= gamma <= delta"
    if delta >= 1:
        return "delta must be small"
    if not -1 <= x <= 1:
        return "angle bound undefined"
    if theta_sq is not None and theta_sq > 1.02 * (0.5 * np.arccos(x)) ** 2:
        return "theta^2 = "
    if not n0 > 0:
        return "pump population must be positive"
    theta = np.sqrt(theta_sq) if theta_sq is not None else 0.5 * np.arccos(x)
    if not np.isfinite(_scheme_qfis(params, theta)).all():
        return "non-finite "
    return None


def _scheme_qfis(params, theta):
    """H_orig = B^2/4 (1 + sinh^2 2r), H_pump = B^2/4 (1 + sinh^2 2r_p)
    + B^2/2 theta^2 n0 n_side, and their ratio."""
    b, n0, n_side = params["strength"], params["n0"], _side(params)
    r_p = params["r_original"] if params["r_pumped"] is None else params["r_pumped"]
    h_orig = 0.25 * b ** 2 * (1.0 + np.sinh(2.0 * np.float64(params["r_original"])) ** 2)
    h_pump = 0.25 * b ** 2 * (1.0 + np.sinh(2.0 * np.float64(r_p)) ** 2) \
        + 0.5 * b ** 2 * theta ** 2 * n0 * n_side
    return h_orig, h_pump, h_pump / h_orig


def _side(params):
    r = params["r_original"] if params["r_pumped"] is None else params["r_pumped"]
    return 2.0 * np.sinh(np.float64(r)) ** 2


def _post_tritter_ratio(n0, n_side, theta):
    # side/pump populations after the tritter: n0 s^2 + n/2 (1 + c^2) over n0 c^2 + n/2 s^2
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    return (n0 * s2 + 0.5 * n_side * (1.0 + c2)) / (n0 * c2 + 0.5 * n_side * s2)


def _check_formulas(row, params):
    """A passing row against the scheme formulas (_scheme_qfis) and theta_max's definition."""
    for column, value in zip(("qfi_original", "qfi_pumped", "ratio"),
                             _scheme_qfis(params, row["theta"])):
        assert row[column] == pytest.approx(value, rel=1e-12)
    assert row["theta"] == pytest.approx(
        row["theta_max"] if params["theta_sq"] is None else np.sqrt(params["theta_sq"]),
        rel=1e-12)
    assert _post_tritter_ratio(params["n0"], _side(params), row["theta_max"]) == pytest.approx(
        params["delta"], rel=1e-9, abs=1e-15)


def _bits(value):
    return None if value is None else np.float64(value).view(np.int64)


# pump populations, squeezing and base values that reach every check of
# compare_schemes: n0 <= 0, gamma > delta, delta >= 1, negative or excessive
# theta_sq, and non-finite results from sinh overflow (r > 355) or strength 0
N0 = st.one_of(*[st.floats(4.0, 9.0).map(lambda e: 10.0 ** e)] * 3,
               st.floats(0.0, 4.0).map(lambda e: 10.0 ** e), st.sampled_from([0.0, -5.0]))
R = st.one_of(*[st.floats(0.0, 3.0)] * 4, st.floats(300.0, 800.0))
THETA_SQ = st.one_of(*[st.floats(0.0, 0.1)] * 3, st.floats(-0.02, 0.3))
BASE = st.fixed_dictionaries({
    "n0": st.floats(1.0, 1e9),
    "r_original": R,
    "r_pumped": st.one_of(st.none(), R),
    "strength": st.floats(0.0, 4.0),
    "delta": st.one_of(*[st.floats(0.01, 0.3)] * 4, st.floats(0.0, 1.5)),
    "theta_sq": st.one_of(st.none(), st.none(), THETA_SQ),
})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(BASE, st.lists(N0, min_size=1, max_size=5), st.lists(R, min_size=1, max_size=4),
       st.one_of(st.none(), st.none(), st.lists(THETA_SQ, min_size=1, max_size=3)))
# n0 < 0 at r_pumped = 0 gives gamma = -0.0, which passes the angle checks and
# fails only n0 > 0
@example(base={"n0": 1e6, "r_original": 1.0, "r_pumped": None, "strength": 1.0,
               "delta": 0.1, "theta_sq": None},
         n0s=[-5.0, 1e6], rs=[0.0, 1.0], theta_sqs=[0.0, 0.01])
def test_batched_gw_rows_equal_scalar_rows(base, n0s, rs, theta_sqs):
    # each row is the one-point call on its own parameters, bit for bit, so it
    # never depends on its neighbours; the referee names its failing check, and
    # a passing row meets the scheme formulas
    sweeps = [("n0", tuple(n0s)), ("r_pumped", tuple(rs))]
    if theta_sqs is not None:
        sweeps.append(("theta_sq", tuple(theta_sqs)))
    spec = SweepSpec(base=base, sweeps=tuple(sweeps), quantities=("comparison",), kind="gw")
    with np.errstate(all="ignore"):
        rows = run_sweep(spec)
    for row in rows:
        params = dict(base)
        params.update((name, row[name]) for name, _ in sweeps)
        with np.errstate(all="ignore"):
            expected, error = _scalar_row(params)
            failing = _referee(params)
            assert row["error"] == error
            for column, value in expected.items():
                assert _bits(row[column]) == _bits(value), (column, row, expected)
            if failing is None:
                assert error == ""
                _check_formulas(row, params)
            else:
                assert error.startswith(failing), (error, failing)


def test_compare_grid_keeps_reduced_shapes():
    n0 = np.array([1e6, 2e6, 4e6]).reshape(3, 1)
    r_pumped = np.array([1.0, 2.0]).reshape(1, 2)
    columns, errors = compare_grid(n0, 4.2, r_pumped)
    assert errors == {}
    assert columns["qfi_original"].shape == ()
    assert columns["ratio"].shape == (3, 2)
    for i in range(3):
        for j in range(2):
            cmp = compare_schemes(n0[i, 0], 4.2, r_pumped[0, j])
            assert columns["ratio"][i, j] == cmp.ratio
            assert columns["theta_max"][i, j] == cmp.theta_max


def test_compare_grid_stored_errors_hold_no_reference_cycle():
    # a stored traceback leads back to compare_grid's frame, whose locals hold
    # the errors and the grid's columns; that cycle would keep them alive until
    # a collection
    n0 = np.where(np.arange(100) % 10 == 0, 0.0, 1e6)  # every tenth row has no pump
    gc.collect()
    gc.disable()
    try:
        with np.errstate(all="ignore"):
            columns, errors = compare_grid(n0, 4.2, np.linspace(0.5, 1.5, 100))
        assert sorted(errors) == list(range(0, 100, 10))
        assert all(isinstance(exc, ValueError) for exc in errors.values())
        del columns, errors
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_defaulted_theta_sq_gives_theta_max_as_theta(rng):
    # theta is the theta_max array itself, and the root of the default
    # theta_sq = theta_max^2 it stands for has the same bits: sqrt(fl(x*x)) == x
    # while x*x stays normal, and theta_max is 0 or at least 7.4e-9.  Rows with
    # gamma on delta give theta_max 0 and about 1e-8; drawn rows with no pump
    # or an overflowing sinh fail, so compare_grid takes its copy path.
    delta = 0.1
    r = rng.uniform(0.0, 3.0, 60)
    n0 = _side_population(r) / delta
    n0 = np.concatenate([n0, n0 * (1.0 + 1e-15), rng.uniform(-1e3, 1e8, 60)])
    r = np.concatenate([r, r, np.where(rng.random(60) < 0.1, 400.0, rng.uniform(0.0, 3.0, 60))])
    with np.errstate(all="ignore"):
        columns, errors = compare_grid(n0, 4.2, r, delta=delta)
    failed = np.isin(np.arange(n0.size), list(errors))
    assert 0 < failed.sum() < n0.size
    theta_max = columns["theta_max"]
    assert columns["theta"] is theta_max
    kept = theta_max[~failed]
    assert (kept == 0.0).any() and ((kept > 0.0) & (kept < 1e-7)).any()
    assert np.array_equal(np.sqrt(kept * kept).view(np.uint64), kept.view(np.uint64))
    assert np.isnan(theta_max[failed]).all()
    columns, errors = compare_grid(n0[~failed], 4.2, r[~failed], delta=delta)
    assert errors == {} and columns["theta"] is columns["theta_max"]
    for i in np.flatnonzero(~failed)[::5]:
        point = compare_schemes(n0[i], 4.2, r[i], delta=delta)
        assert point.theta.hex() == point.theta_max.hex() == theta_max[i].hex()
    # the same root over the whole range of theta_max = arccos(z) / 2
    x = 0.5 * np.arccos(rng.uniform(-1.0, 1.0, 100_000))
    assert np.array_equal(np.sqrt(x * x).view(np.uint64), x.view(np.uint64))
