"""The stacked kernel on grids against its one-point calls and the scalar
functions, values and errors, and against the 60-digit referee."""

import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pumpedsu11 import (ChannelSpec, ConfigError, InterferometerConfig, mode_mixing_channel,
                        optimal_tritter_angle, parse_config, phase_channel, pump_depletion,
                        pumped_two_mode_squeezer, qfi_closed_form, qfi_numeric, run_sweep,
                        sensitivity_number_sum, squeezing_channel, tritter)
from pumpedsu11.channels import _generator, _side_channel, _tritter_matrix, _with_pump
from pumpedsu11.metrology import QUANTITY_COLUMNS, _at_config, _evaluate_grid, _point, _Point
from pumpedsu11.sweep import INTERFEROMETER_COLUMNS, QUANTITIES, _build_config
from conftest import mp_referee, random_config

ANGLE = st.floats(0.0, 2 * math.pi)


@st.composite
def rows(draw):
    """1 to 6 random_config-style draws of one channel kind, each with eps0 in [1e-4, 1e-2]."""
    kind = draw(st.sampled_from(["squeezing", "mode_mixing", "phase"]))
    return draw(st.lists(row(kind), min_size=1, max_size=6))


@st.composite
def row(draw, kind):
    r = draw(st.floats(0.0, 2.0))
    nbar = 10.0 ** draw(st.floats(1.0, 6.0))
    assume(nbar > 2.0 * math.sinh(r) ** 2 * 1.05 + 0.5)
    channel = ChannelSpec(kind, draw(st.floats(0.25, 4.0)), draw(ANGLE))
    config = InterferometerConfig(nbar=nbar, r=r, theta=draw(st.floats(0.0, math.pi / 2)),
                                  channel=channel, pump_phase=draw(ANGLE),
                                  squeeze_phase=draw(ANGLE), tritter_phase=draw(ANGLE))
    return config, draw(st.floats(1e-4, 1e-2))


def evaluate_rows(configs, eps0s, quantities):
    """``_evaluate_grid`` on rows of one channel kind, their parameters as
    arrays; ({column: one cell per row}, the errors of each row)."""
    (kind,) = {config.channel.kind for config in configs}
    point = _Point(*np.array([_point(config) for config in configs]).T)
    values, errors = _evaluate_grid(kind, point, np.array(eps0s), quantities,
                                    (len(configs),), True)
    return values, [errors.get(i, []) for i in range(len(configs))]


def single_point(config, eps0):
    """{column: value} and the error text of one row: the single-point
    functions, each a one-point call of the kernel or a scalar closed form."""
    values, errors = {}, []
    calls = (("H_numeric", ("H_numeric",), lambda: (qfi_numeric(config),)),
             ("H_closed", ("H_closed",), lambda: (qfi_closed_form(config, "exact"),)),
             ("F0", ("F0",), lambda: (sensitivity_number_sum(config, eps0)[1],)),
             ("moments", ("mean_S", "var_S"), lambda: _at_config(config, eps0, "moments")),
             ("theta_t", ("theta_t",), lambda: (optimal_tritter_angle(
                 config.nbar, pump_depletion(config.nbar, config.r)[1]),)))
    for quantity, columns, call in calls:
        try:
            with np.errstate(all="ignore"):
                values.update(zip(columns, call()))
        except Exception as exc:
            values.update(dict.fromkeys(columns))
            errors.append(f"{quantity}: {exc}")
    return values, "; ".join(errors)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows())
def test_batch_matches_single_point_functions(batch):
    configs, eps0s = zip(*batch)
    values, errors = evaluate_rows(configs, eps0s, QUANTITIES)
    for i, (config, eps0) in enumerate(batch):
        expected, error = single_point(config, eps0)
        assert "; ".join(f"{q}: {exc}" for q, exc in errors[i]) == error
        for column, reference in expected.items():
            got = values[column][i]
            if reference is None:
                assert got is None
            else:
                rtol = 1e-12 if column == "H_numeric" else 1e-9
                assert got == pytest.approx(reference, rel=rtol), column


def test_stacked_fills_equal_the_scalar_builders(rng):
    # bit for bit, so a batch row and the object pipeline share every
    # rounding (a numpy scalar squares through pow, an array does not); the
    # squeezer is the squeezing channel's fill on the side modes
    n = 2000
    a, b, strength = rng.uniform(0.0, 1.6, n), rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0, 4, n)
    builders = {"squeezing": lambda i: squeezing_channel(a[i], b[i]).matrix,
                "mode_mixing": lambda i: mode_mixing_channel(a[i], b[i]).matrix,
                "phase": lambda i: phase_channel(a[i]).matrix[2:, 2:]}
    stacks = {kind: (_side_channel(kind, a, b), _generator(kind, strength, b))
              for kind in builders}
    squeezers = _with_pump(_side_channel("squeezing", a, b))
    for i in range(n):
        assert np.array_equal(squeezers[i], pumped_two_mode_squeezer(a[i], b[i]).matrix)
        for kind, build in builders.items():
            side, generator = stacks[kind]
            assert np.array_equal(side[i], build(i))
            assert np.array_equal(generator[i], ChannelSpec(kind, strength[i], b[i]).generator())
    # about one angle in a thousand has a cos^2(theta/2) entry where the two squarings differ
    theta, phase = rng.uniform(0.0, np.pi / 2, 20000), rng.uniform(0.0, 2 * np.pi, 20000)
    mixers = _tritter_matrix(theta, phase)
    assert all(np.array_equal(m, tritter(t, p).matrix) for m, t, p in zip(mixers, theta, phase))


def test_failing_rows_keep_their_own_errors(tmp_path):
    # r = 20 depletes the pump; r = 0 has no turning point; eps0 = 0 has no
    # number-sum slope; r = 10, which once failed an absolute 1e-10 symplectic
    # residual, is a valid row
    path = tmp_path / "grid.conf"
    path.write_text("channel = squeezing\nnbar = 1e12\ntheta = 0.4\n"
                    "[sweep]\nr = values 0.0 0.8 10.0 20.0 1.3\neps0 = values 0.0 0.002\n")
    spec = parse_config(str(path))
    table = run_sweep(spec)
    assert len(table) == 10
    for row in table:
        params = dict(spec.base, r=row["r"])
        if row["r"] == 20.0:
            assert row["error"].startswith("pump depleted")
            continue
        config = InterferometerConfig(params["nbar"], params["r"], params["theta"],
                                      ChannelSpec("squeezing"))
        expected, error = single_point(config, row["eps0"])
        assert row["error"] == error
        assert {k: row[k] for k in expected} == expected
    errors = {(row["r"], row["eps0"]): row["error"] for row in table}
    assert errors[(0.8, 0.002)] == errors[(1.3, 0.002)] == ""
    assert errors[(0.8, 0.0)].startswith("F0: number-sum signal is stationary")
    assert errors[(0.0, 0.002)].startswith("theta_t:")
    assert errors[(10.0, 0.002)] == ""
    row = next(row for row in table if (row["r"], row["eps0"]) == (10.0, 0.002))
    config = InterferometerConfig(1e12, 10.0, 0.4, ChannelSpec("squeezing"))
    reference = mp_referee(config, 0.002)
    assert row["H_numeric"] == pytest.approx(qfi_closed_form(config), rel=1e-12)
    assert row["H_numeric"] == pytest.approx(reference["H"], rel=1e-12)
    for column in ("F0", "mean_S", "var_S"):  # the r <= 10 tolerance, see test_metrology
        assert row[column] == pytest.approx(reference[column], rel=1e-10), column


# one config per reachable failure: (quantity, config, eps0, exception type,
# exact text), as the kernel and the closed forms word them
FAILURES = {
    "non_finite_qfi": (
        "H_numeric", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("squeezing", 1e200)), 1e-3,
        FloatingPointError, "QFI evaluated to inf"),
    "non_finite_moments": (
        "moments", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("squeezing", 1e200)), 1e-3,
        FloatingPointError, "number-sum moments evaluated to <S> = nan, Var(S) = nan"),
    "non_finite_slope": (
        "F0", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("squeezing", 1e200)), 1e-3,
        FloatingPointError, "number-sum signal evaluated to d<S>/d eps = nan, Var(S) = nan"),
    "stationary": ("F0", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("squeezing")), 0.0,
                   ValueError, "number-sum signal is stationary at zero strain; use eps0 > 0"),
    "no_signal": ("F0", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("squeezing", 0.0)), 1e-3,
                  FloatingPointError,
                  "vanishing signal derivative: measurement is insensitive at this point"),
    # the variance (of order eps0^2) underflows, the slope (of order eps0) does not
    "no_variance": (
        "F0", InterferometerConfig(1e3, 0.0, 1.0, ChannelSpec("squeezing")), 1e-200,
        FloatingPointError, "non-positive signal variance 0.0"),
    "zero_ratio": (
        "F0", InterferometerConfig(1e6, 0.0, 0.5, ChannelSpec("mode_mixing", 1e150)), 1e-3,
        ZeroDivisionError, "degenerate ratio Var(S)/(d<S>/d eps)^2 = 0.0 "
        "(Var(S) = 29598.85623223449, (d<S>/d eps)^2 = inf)"),
    # inf - inf in the exact closed form
    "non_finite_closed_form": (
        "H_closed", InterferometerConfig(1e300, 300.0, 0.3, ChannelSpec("mode_mixing", 1.0, 0.4)),
        1e-3, FloatingPointError, "closed-form QFI evaluated to nan"),
    "no_closed_form": ("H_closed", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("phase")),
                       1e-3, ValueError, "no closed-form QFI for channel kind 'phase'"),
    "no_turning_point": ("theta_t", InterferometerConfig(1e6, 0.0, 0.5, ChannelSpec("squeezing")),
                         1e-3, ValueError, "need n_side > 0, got 0.0"),
}
SINGLE_POINT = {
    "H_numeric": lambda config, eps0: qfi_numeric(config),
    "H_closed": lambda config, eps0: qfi_closed_form(config),
    "F0": sensitivity_number_sum,
    "moments": lambda config, eps0: _at_config(config, eps0, "moments"),
    "theta_t": lambda config, eps0: optimal_tritter_angle(
        config.nbar, pump_depletion(config.nbar, config.r)[1]),
}


@pytest.mark.parametrize("case", FAILURES)
def test_each_failure_kind_keeps_its_type_and_text(case):
    quantity, config, eps0, kind, text = FAILURES[case]
    with np.errstate(all="ignore"):
        values, errors = _evaluate_grid(config.channel.kind, _point(config), eps0,
                                        (quantity,), (), True)
        with pytest.raises(kind) as info:
            SINGLE_POINT[quantity](config, eps0)
        assert str(info.value) == text
    ((name, exc),) = errors[0]
    assert (name, type(exc), str(exc)) == (quantity, kind, text)
    assert all(cells == [None] for cells in values.values())


# points that failed an absolute 1e-10 symplectic residual in the output
# frame: the roundoff of a large squeezer (r = 10) or channel (argument 30)
FORMER_RESIDUALS = {
    "residual": ("H_numeric", InterferometerConfig(1e12, 10.0, 0.4, ChannelSpec("squeezing")),
                 1e-3),
    "residual_moments": (
        "moments", InterferometerConfig(1e12, 10.0, 0.4, ChannelSpec("mode_mixing")), 1e-3),
    "side_residual": (
        "F0", InterferometerConfig(1e6, 1.0, 0.5, ChannelSpec("squeezing", 40.0)), 3.0),
}


@pytest.mark.parametrize("case", FORMER_RESIDUALS)
def test_former_residual_failures_have_values(case):
    quantity, config, eps0 = FORMER_RESIDUALS[case]
    values, errors = _evaluate_grid(config.channel.kind, _point(config), eps0, (quantity,),
                                    (), True)
    assert errors == {}
    reference = mp_referee(config, eps0)
    for column in QUANTITY_COLUMNS[quantity]:
        assert values[column][0] == pytest.approx(
            reference["H" if column == "H_numeric" else column], rel=1e-12), column
    if quantity == "H_numeric":
        assert values["H_numeric"][0] == pytest.approx(qfi_closed_form(config), rel=1e-12)


def test_rows_do_not_depend_on_their_neighbours():
    good = [InterferometerConfig(1e4, 0.7, 0.5, ChannelSpec(kind, 1.3, 0.4),
                                 squeeze_phase=0.2, tritter_phase=1.1)
            for kind in ("squeezing", "mode_mixing", "phase")]
    bad = [InterferometerConfig(1e6, 1.0, 0.3, ChannelSpec("squeezing", 1e200)),
           InterferometerConfig(1e4, 0.0, 0.3, ChannelSpec("mode_mixing"))]
    batches = ([(good[0], 1e-3), (bad[0], 1e-3), (good[0], 0.0)],
               [(good[1], 2e-3), (bad[1], 1e-3)], [(good[2], 5e-3)])
    errors = []
    for batch in batches:  # one channel kind each
        values, batch_errors = evaluate_rows(*zip(*batch), QUANTITIES)
        for i, (config, eps0) in enumerate(batch):
            alone, alone_errors = evaluate_rows([config], [eps0], QUANTITIES)
            assert {c: v[i] for c, v in values.items()} == {c: v[0] for c, v in alone.items()}
            assert ([(q, str(e)) for q, e in batch_errors[i]]
                    == [(q, str(e)) for q, e in alone_errors[0]])
        errors.append(batch_errors)
    assert [q for q, _ in errors[2][0]] == ["H_closed"]  # the phase channel has no closed form
    assert errors[0][0] == errors[1][0] == []
    assert errors[0][1] and errors[1][1]


def test_parse_config_rejects_unknown_quantities(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("channel = squeezing\n[outputs]\nquantities = H_numeric comparsion\n")
    with pytest.raises(ConfigError, match="unknown quantity 'comparsion'"):
        parse_config(str(path))


def test_batched_closed_forms_equal_the_scalar_functions(rng):
    # the batch applies the formulas of qfi_closed_form and optimal_tritter_angle
    # to arrays, so a valid row is equal bit for bit, and a failing row (phase
    # channel, r = 0, no turning point) carries the scalar function's error
    calls = {"H_closed": lambda c: qfi_closed_form(c, "exact"),
             "theta_t": lambda c: optimal_tritter_angle(c.nbar, pump_depletion(c.nbar, c.r)[1])}
    valid = dict.fromkeys(calls, 0)
    for kind in ("squeezing", "mode_mixing", "phase"):
        configs = [random_config(rng, kind=kind, r_max=r_max)
                   for r_max in (0.5, 2.0, 5.0) for _ in range(300)]
        if kind == "squeezing":
            configs.append(InterferometerConfig(1e4, 0.0, 0.3, ChannelSpec("squeezing")))
        values, errors = evaluate_rows(configs, [1e-3] * len(configs), ("H_closed", "theta_t"))
        for i, config in enumerate(configs):
            expected_errors = []
            for quantity, call in calls.items():
                try:
                    expected = call(config)
                except ValueError as exc:
                    expected_errors.append((quantity, str(exc)))
                    assert values[quantity][i] is None
                else:
                    valid[quantity] += 1
                    assert values[quantity][i] == expected, (quantity, config)
            assert [(q, str(e)) for q, e in errors[i]] == expected_errors
    assert valid["H_closed"] == 1801 and valid["theta_t"] > 1500, valid


def test_stored_errors_hold_no_reference_cycle():
    # a stored traceback leads back to the kernel's frame, whose locals hold
    # the errors; that cycle would keep the whole batch alive until a collection
    config = InterferometerConfig(1e4, 0.0, 0.3, ChannelSpec("phase"))
    gc.collect()
    gc.disable()
    try:
        values, errors = evaluate_rows([config] * 3, [0.0] * 3, QUANTITIES)
        assert [q for q, _ in errors[0]] == ["H_closed", "F0", "theta_t"]
        del values, errors
        assert gc.collect() == 0
    finally:
        gc.enable()


def reference_row(params, eps0):
    """One row of a sweep the single-point way: one _build_config, then the
    single-point function of each quantity; ({column: value}, error text)."""
    try:
        config = _build_config(params)
    except ConfigError as exc:
        return dict.fromkeys(INTERFEROMETER_COLUMNS[:-1]), str(exc)
    return single_point(config, eps0)


def _seeded_grid(rng, kind):
    phases = "".join(f"{name} = {rng.uniform(0.0, 2 * np.pi)!r}\n" for name in
                     ("pump_phase", "squeeze_phase", "tritter_phase", "channel_phase"))
    # nbar = 5 depletes every r > 0.9 and r = 10 every pump but 1e12
    return (f"channel = {kind}\n{phases}[sweep]\n"
            f"nbar = values 5 {10 ** rng.uniform(2.0, 6.0)!r} 1e12\n"
            f"r = values 0 {rng.uniform(0.2, 2.5)!r} 10\n"
            f"theta = values -0.1 {rng.uniform(0.0, np.pi / 2)!r} 1.5707963267948966 1.6\n"
            f"strength = values -0.5 {rng.uniform(0.3, 3.0)!r}\n"
            f"eps0 = values 0 {rng.uniform(1e-4, 1e-2)!r}\n")


@pytest.mark.parametrize("kind", ["squeezing", "mode_mixing", "phase"])
def test_grid_sweep_equals_the_single_point_path(tmp_path, rng, kind):
    # the grid path builds no config for a row it evaluates; every cell and
    # every error text must still be the single-point functions', bit for bit
    grids = [_seeded_grid(rng, kind),
             f"channel = {kind}\nr = 2.0\ntheta = 0.5\n[sweep]\nnbar = values 1 26 27 1e6\n"]
    for k, text in enumerate(grids):
        path = tmp_path / f"grid{k}.conf"
        path.write_text(text)
        spec = parse_config(str(path))
        rows = run_sweep(spec)
        assert len(rows) == spec.grid_size()
        errors = set()
        for row in rows:
            params = dict(spec.base, **{name: row[name] for name, _ in spec.sweeps})
            values, error = reference_row(params, row.get("eps0", 1e-3))
            assert row["error"] == error, params
            assert {c: row[c] for c in values} == values, params
            errors.update(part.split(":")[0] for part in error.split("; "))
            # n_side is 2 sinh^2 r through one product helper; the square
            # spelled with ** 2 (pow on a numpy scalar) may differ from it in
            # the last bit, and in nothing more
            n_side = pump_depletion(np.inf, params["r"])[1]
            assert abs(2.0 * np.sinh(params["r"]) ** 2 - n_side) <= np.spacing(n_side)
        # the phase channel has no closed form, so none of its rows is clean
        expected = {"H_closed" if kind == "phase" else "", "pump depleted"} | (
            {"tritter angle must lie in [0, pi/2], got -0.1",
             "strength constant must be nonnegative, got -0.5"} if k == 0
            else {"theta_t"})
        assert expected <= errors, errors


def test_the_grid_path_builds_configs_only_for_flagged_pipeline_rows(tmp_path, monkeypatch):
    built = []
    post_init = InterferometerConfig.__post_init__

    def counted(self):
        built.append((self.r, self.theta))
        post_init(self)

    monkeypatch.setattr(InterferometerConfig, "__post_init__", counted)
    # a 10 theta x 5 r grid with an r = 0 row (theta_t fails: an error from
    # the closed form, no config) and a depleted row (its error comes from
    # pump_depletion): only the base point parse_config checks is built
    path = tmp_path / "theta.conf"
    path.write_text("channel = squeezing\nnbar = 1e4\n[sweep]\n"
                    "theta = linspace 0.05 1.5 10\nr = values 0 0.5 1 1.5 6\n")
    rows = run_sweep(parse_config(str(path)))
    assert sum(row["error"].startswith("pump depleted") for row in rows) == 10
    assert sum(row["error"].startswith("theta_t: need n_side > 0") for row in rows) == 10
    assert len(built) == 1
    # r = 10 at nbar = 1e12 is a valid row, evaluated without a config too
    built.clear()
    path.write_text("channel = squeezing\nnbar = 1e12\ntheta = 0.4\n[sweep]\n"
                    "r = values 0 0.8 10 30\n")
    rows = run_sweep(parse_config(str(path)))
    assert [row["error"].split(":")[0] for row in rows] == [
        "theta_t", "", "", "pump depleted"]
    assert built == [(0.0, 0.4)]
    # negative strengths and out-of-range angles take their errors from the
    # scalar checks of ChannelSpec and InterferometerConfig, with no config
    built.clear()
    path.write_text("channel = mode_mixing\nnbar = 1e6\nr = 1\n[sweep]\n"
                    "strength = values -1 2 -0.5\ntheta = values -0.1 0.3 1.6 2\n")
    rows = run_sweep(parse_config(str(path)))
    assert [row["error"] for row in rows[:4]] == [
        "strength constant must be nonnegative, got -1.0"] * 4
    angle = "tritter angle must lie in [0, pi/2], got "
    assert [row["error"] for row in rows[4:8]] == [angle + "-0.1", "", angle + "1.6", angle + "2.0"]
    assert built == [(1.0, 0.0)]
