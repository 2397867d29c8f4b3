"""Plain-text run configuration, parameter grids, and table output.

The config format is line-oriented ``key = value`` with optional sections:

    channel = squeezing          # squeezing | mode_mixing | phase
    strength = 1.0
    r = 1.0
    nbar = 1e6
    theta = 0.3
    eps0 = 1e-3                  # strain point of F0 and the moments

    [sweep]
    theta = linspace 0 1.5707963267948966 50
    r = values 0.5 1.0 2.0

    [outputs]
    quantities = H_numeric H_closed F0 moments theta_t

    [gw]                         # alternative base for scheme comparisons
    n0 = 1e6
    r_original = 4.2

Unknown keys, a key given twice and a quantity listed twice are hard errors.
All physics parameters, the strain point eps0 among them, live in the file so
a run is reproducible from the file alone; only the output destination may
come from the environment.  Any base key but ``channel`` can be swept.

The unswept keys of an interferometer file's base point, the single point of
a ``[gw]`` file without a ``[sweep]`` section, and a swept ``[gw]`` file's
unswept delta and theta_sq are validated when the file is read, so a point
outside the formulas' domain is a :class:`ConfigError` with the file's name.  An interferometer sweep is held as arrays: each swept
key is an array shaped to broadcast over the grid, and each unswept key stays
a scalar.  Every grid reports its failures through one protocol,
``pipeline._row_errors``: each check is a mask over the arrays, and a failing
row carries the error of its first failing check, worded once per point of
the check's own shape.  An interferometer grid's row checks (strength, pump
depletion, angle range) take their texts from the scalar checks of
:class:`ChannelSpec`, :func:`pump_depletion` and :class:`InterferometerConfig`;
the rows that pass go straight to the stacked kernel
(``metrology._evaluate_grid``), whose checks go through the same protocol, so
no :class:`InterferometerConfig` is built for any row.  A ``[gw]`` sweep
evaluates its whole grid, checks included, in one call of
:func:`gw.compare_grid`.  The ``[outputs]`` section selects interferometer
quantities only; a ``[gw]`` run always writes the comparison columns.
Results are held column by column (:class:`SweepTable`), the one form
:func:`emit` writes, formatting each column in one pass.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .gw import _check_theta_sq, compare_grid, compare_schemes
from .metrology import QUANTITY_COLUMNS, _evaluate_grid, _Point
from .pipeline import (InterferometerConfig, _check_tritter_angle, _row_errors, _scalar_check,
                       _side_population, max_tritter_angle, pump_depletion)

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepTable",
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
    "nbar": 1e6,
    "pump_phase": 0.0,
    "r": 0.0,
    "squeeze_phase": 0.0,
    "theta": 0.0,
    "tritter_phase": 0.0,
    "eps0": 1e-3,
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
# the keys of each section but [sweep], which takes any parameter but the channel
_SECTION_KEYS = {None: BASE_KEYS, "outputs": ("quantities",), "gw": tuple(GW_DEFAULTS)}
QUANTITIES = tuple(QUANTITY_COLUMNS)  # H_numeric H_closed F0 moments theta_t

INTERFEROMETER_COLUMNS = tuple(itertools.chain(*QUANTITY_COLUMNS.values())) + ("error",)
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
        return math.prod(len(values) for _, values in self.sweeps)


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
        count = _parse_number(tokens[3], where)
        if not count.is_integer():
            raise ConfigError(f"{where}: linspace count must be a whole number, got {tokens[3]}")
        if count < 1:
            raise ConfigError(f"{where}: sweep count must be >= 1, got {int(count)}")
        if count > GRID_CAP:  # refused before the values are made
            raise ConfigError(f"{where}: linspace count {tokens[3]} exceeds the grid cap "
                              f"{GRID_CAP}")
        with np.errstate(all="ignore"):  # a span hi - lo that overflows is refused below
            values = np.linspace(lo, hi, int(count))
        if not np.isfinite(values).all():
            raise ConfigError(f"{where}: linspace from {tokens[1]} to {tokens[2]} gives a "
                              "non-finite value")
        return tuple(values.tolist())
    if tokens[0] == "values":
        tokens = tokens[1:]
        if not tokens:
            raise ConfigError(f"{where}: 'values' needs at least one value")
    return tuple(_parse_number(t, where) for t in tokens)


def parse_config(path) -> SweepSpec:
    """Parse and validate a run configuration file.  A refusal is a :class:`ConfigError`
    naming the file, and the line where there is one: for text that is not UTF-8, the
    line of its first bad byte.  A file ``open`` cannot open raises its ``OSError``."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n or \r, as text mode splits
    try:
        lines = [line.decode("utf-8") for line in lines]
    except UnicodeDecodeError as exc:  # its object is the first line that fails
        raise ConfigError(f"{path}:{lines.index(exc.object) + 1}: not UTF-8 text: byte "
                          f"0x{exc.object[exc.start]:02x} at column {exc.start + 1}") from None
    section = None
    given = {name: {} for name in (None, "sweep", "outputs", "gw")}  # key -> value
    outputs_where = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in given:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        keys = given[section]
        if section == "sweep":
            if key == "channel":
                raise ConfigError(f"{where}: the channel kind cannot be swept")
            if key in keys:
                raise ConfigError(f"{where}: parameter {key!r} swept twice")
            keys[key] = _parse_sweep_values(value, where)
            continue
        place = f" in [{section}]" if section else ""
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"{where}: unknown key {key!r}{place}")
        if key in keys:
            raise ConfigError(f"{where}: key {key!r} given twice{place}")
        if section == "outputs":
            outputs_where = where
            keys[key] = quantities = tuple(value.replace(",", " ").split())
            if not quantities:
                raise ConfigError(f"{where}: empty quantity list")
            for i, q in enumerate(quantities):
                if q not in QUANTITIES + ("comparison",):
                    raise ConfigError(f"{where}: unknown quantity {q!r}")
                if q in quantities[:i]:
                    raise ConfigError(f"{where}: quantity {q!r} listed twice")
        else:
            keys[key] = value if key == "channel" else _parse_number(value, where)

    base, swept, gw = given[None], given["sweep"], given["gw"]
    quantities = given["outputs"].get("quantities", QUANTITIES)
    if gw:
        if base:
            raise ConfigError(f"{path}: give either interferometer keys or a [gw] "
                              "section, not both")
        params = {**GW_DEFAULTS, **gw}
        if params["r_original"] is None:
            raise ConfigError(f"{path}: [gw] section requires r_original")
        if outputs_where is not None:
            raise ConfigError(f"{outputs_where}: [outputs] does not apply to a [gw] run, "
                              "which always writes the comparison columns")
        for name in swept:
            if name not in GW_DEFAULTS:
                raise ConfigError(f"{path}: cannot sweep {name!r} in a [gw] run")
        _check_gw_point(params, swept, path)
        quantities, kind = ("comparison",), "gw"
    else:
        if "channel" not in base:
            raise ConfigError(f"{path}: missing required key 'channel'")
        if "comparison" in quantities:
            raise ConfigError(f"{outputs_where}: quantity 'comparison' needs a [gw] section")
        params = {**DEFAULTS, **base}
        for name in swept:
            if name not in DEFAULTS:
                raise ConfigError(f"{path}: cannot sweep unknown parameter {name!r}")
        try:  # validate now, with file context
            _build_config(_unswept_point(params, swept.items()))
        except ConfigError as exc:
            raise ConfigError(f"{path}: base point: {exc}") from None
        kind = "interferometer"
    spec = SweepSpec(params, tuple(swept.items()), quantities, kind)
    if spec.grid_size() > GRID_CAP:
        raise ConfigError(f"{path}: sweep grid has {spec.grid_size()} points, "
                          f"cap is {GRID_CAP}")
    return spec


def sweeps_names(sweeps) -> tuple:
    return tuple(name for name, _ in sweeps)


def _unswept_point(params: dict, sweeps) -> dict:
    """The base point with every swept key at its default.

    Each grid row checks its own swept values, so a base value that every row
    replaces must not fail the file.  A default passes every check on its own,
    so the base point's check covers exactly the keys no sweep sets, apart
    from r when nbar is swept: the pump-depletion check ties the two.
    """
    swept = {name for name, _ in sweeps if name in DEFAULTS}
    if "nbar" in swept:
        swept.add("r")
    return {**params, **{key: DEFAULTS[key] for key in swept}}


def _build_config(params: dict) -> InterferometerConfig:
    try:
        channel = ChannelSpec(kind=params["channel"], strength=params["strength"],
                              phase=params["channel_phase"])
        return InterferometerConfig(
            nbar=params["nbar"], r=params["r"], theta=params["theta"], channel=channel,
            pump_phase=params["pump_phase"], squeeze_phase=params["squeeze_phase"],
            tritter_phase=params["tritter_phase"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_gw_point(params: dict, swept, path) -> None:
    """Put the unswept [gw] point through compare_schemes' checks; raise its first error.

    A swept file's rows report their own failures, so it is refused only for an
    unswept value that fails every row: theta_sq < 0, or delta outside [0, 1).
    """
    try:
        if not swept:
            compare_schemes(**params)
        else:
            if "theta_sq" not in swept and params["theta_sq"] is not None:
                _check_theta_sq(params["theta_sq"])
            if "delta" not in swept:
                max_tritter_angle(0.0, params["delta"])
    except ValueError as exc:  # each of compare_grid's checks raises one
        raise ConfigError(f"{path}: [gw] base point: {exc}") from None


@dataclass(frozen=True)
class SweepTable:
    """A result table held column by column, in output order.

    Rows run over the grid ``shape`` (one entry per swept name, first name
    outermost) in C order.  A column is a list with one cell per row, or a
    float array that broadcasts to ``shape``: a swept axis, or a value that
    depends on only some of the axes.  :func:`emit` formats a column object
    held under two names once (a ``[gw]`` table with defaulted theta_sq holds
    theta_max as theta), and a smaller array once per element, then repeats it.
    """

    columns: dict
    shape: tuple = ()

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def rows(self) -> list:
        """One dict per row, keys in column order; empty dicts for a table without columns."""
        cells = [np.broadcast_to(column, self.shape).ravel().tolist()
                 if isinstance(column, np.ndarray) else column for column in self.columns.values()]
        rows = zip(*cells) if cells else [()] * self.size
        return [dict(zip(self.columns, row)) for row in rows]


def _axes(spec: SweepSpec) -> tuple:
    """The grid shape and each swept axis as an array shaped to broadcast over it."""
    shape = tuple(len(values) for _, values in spec.sweeps)
    axes = {}
    for j, (name, values) in enumerate(spec.sweeps):
        axes[name] = np.array(values, dtype=float).reshape(
            (1,) * j + (-1,) + (1,) * (len(shape) - j - 1))
    return shape, axes


def _gw_table(spec: SweepSpec) -> SweepTable:
    shape, columns = _axes(spec)
    values, errors = compare_grid(**{key: columns.get(key, spec.base[key])
                                     for key in GW_DEFAULTS})
    error_cells = [""] * math.prod(shape)
    if errors:  # full-grid arrays; one list per distinct array keeps a shared column shared
        lists = {id(column): column.ravel().tolist() for column in values.values()}
        values = {name: lists[id(column)] for name, column in values.items()}
        for i, exc in errors.items():
            error_cells[i] = str(exc)
            for column in lists.values():
                column[i] = None
    columns.update(values)
    columns["error"] = error_cells
    return SweepTable(columns, shape)


def _interferometer_table(spec: SweepSpec) -> SweepTable:
    shape, columns = _axes(spec)
    size = math.prod(shape)
    params = {key: columns.get(key, spec.base[key]) for key in DEFAULTS}
    nbar, r, theta, strength = (params[key] for key in ("nbar", "r", "theta", "strength"))
    n_side = _side_population(r)
    n0 = nbar - n_side
    point = _Point(*(params[name] for name in _Point._fields[:-2]), n0, n_side)
    # the checks of ChannelSpec and InterferometerConfig that a swept value can
    # fail, in their order (parse_config checked the base point, and the keys
    # no sweep sets)
    failed = _row_errors([
        _scalar_check(strength < 0.0, functools.partial(ChannelSpec, spec.base["channel"]),
                      strength),
        _scalar_check(n0 <= 0.0, pump_depletion, nbar, r),
        _scalar_check(np.logical_not((0.0 <= theta) & (theta <= np.pi / 2)),
                      _check_tritter_angle, theta),
    ], shape) if spec.sweeps else {}
    valid = True
    if failed:
        valid = np.ones(size, dtype=bool)
        valid[list(failed)] = False
    values, errors = _evaluate_grid(spec.base["channel"], point, params["eps0"],
                                    spec.quantities, shape, valid)
    for column in INTERFEROMETER_COLUMNS[:-1]:
        cells = values.get(column) or [None] * size
        for i in failed:
            cells[i] = None
        columns[column] = cells
    error_cells = [""] * size
    for i, exc in failed.items():
        error_cells[i] = str(exc)
    for i, row_errors in errors.items():
        error_cells[i] = "; ".join(f"{quantity}: {exc}" for quantity, exc in row_errors)
    columns["error"] = error_cells
    return SweepTable(columns, shape)


def run_sweep(spec: SweepSpec, *, table: bool = False):
    """Evaluate the run configuration over its full grid.

    With ``table=True`` the result is the grid's :class:`SweepTable`, the one
    input :func:`emit` takes; otherwise it is that table's rows, one dict per
    point.  Rows run in lexicographic grid order (first swept name outermost).
    An interferometer grid's row checks (strength, pump depletion, angle
    range) run as masks over its parameter arrays, and the rows that pass go
    to the stacked kernel as one batch, which takes F0 and the moments at the
    file's strain point eps0 (a base key, swept or not).  A ``[gw]`` grid
    goes to :func:`gw.compare_grid` as one batch.  Failures are recorded in
    the row's ``error`` cell and never abort the sweep.
    """
    result = _gw_table(spec) if spec.kind == "gw" else _interferometer_table(spec)
    return result if table else result.rows()


# json writes the non-finite floats this way, not as Python's repr
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SMALLEST_NORMAL = 2.2250738585072014e-308


def _json_number(value) -> str:
    """The JSON number of ``value`` at 13 significant digits: the shortest repr
    of the float its ``.12e`` text parses to, or NaN / Infinity / -Infinity."""
    text = repr(float(f"{value:.12e}"))
    return _JSON_NON_FINITE.get(text, text)


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


# the characters for which csv.writer quotes a cell (whether "\r" is one
# depends on the Python version)
_CSV_QUOTED = frozenset(c for c in ',"\r\n' if _csv_line([c]) != c + "\n")


def _csv_cell(text: str) -> str:
    """A text cell as csv.writer writes it: quoted, with quotes doubled, if it
    holds a delimiter, a quote or a line break."""
    if _CSV_QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _number_text(values, fmt: str) -> list:
    """Cells of a list or array of numbers: 13 significant digits, as text
    (CSV) or as the JSON number of the float that text parses to.

    The values go as one float list through ``float.__format__``, which parses
    no format per cell.  A JSON cell is the number's ``.13g`` text, which has
    the digits of :func:`_json_number` and its layout wherever that repr is in
    fixed notation with a fraction, or in exponent notation.  A mask over the
    values sends the cells where the two may differ to :func:`_json_number`:
    zero, values that may round to an integer below 1e13 (where repr ends in
    ``.0``), values that may round into [1e13, 1e16) (where repr is in fixed
    notation and ``.13g`` uses an exponent), subnormals (whose shortest repr
    may have fewer digits) and non-finite values.
    """
    values = np.asarray(values, dtype=float)
    text = list(map(float.__format__, values.tolist(),
                    itertools.repeat(".12e" if fmt == "csv" else ".13g")))
    if fmt == "csv":
        return text
    x = np.abs(values)
    with np.errstate(invalid="ignore"):  # inf - inf
        # rounding to 13 digits moves a value by at most 5e-13 of itself
        plain = (((x >= _SMALLEST_NORMAL) & (x < 9.99999999999995e12)
                  & (np.abs(x - np.rint(x)) > 1e-12 * x))
                 | ((x >= 1.0000000000001e16) & (x < np.inf)))
    for i in np.flatnonzero(~plain).tolist():
        text[i] = _json_number(values[i])
    return text


def _column_text(column, shape, fmt: str) -> list:
    """One column's cells as text, in grid order: numbers (None where a row
    failed) or strings (a CSV text cell quoted as csv.writer would).  An
    array smaller than the grid is formatted once per element, then repeated."""
    if isinstance(column, np.ndarray):
        if column.shape == shape:
            return _number_text(column.ravel(), fmt)
        text = np.array(_number_text(column.ravel(), fmt), dtype=object)
        return np.broadcast_to(text.reshape(column.shape), shape).ravel().tolist()
    kinds = set(map(type, column))
    if kinds == {str}:
        if fmt == "csv":
            return list(map(_csv_cell, column))
        return [json.dumps(v) if v else "null" for v in column]
    if type(None) not in kinds:
        return _number_text(column, fmt)
    numbers = iter(_number_text([v for v in column if v is not None], fmt))
    empty = "" if fmt == "csv" else "null"
    return [empty if v is None else next(numbers) for v in column]


def emit(table: SweepTable, fmt: str = "csv", path=None) -> str:
    """Serialize a :class:`SweepTable` to CSV or JSON; returns the text, writes ``path``.

    A column holds numbers (None where a row failed) or strings.  Numeric
    cells carry 13 significant digits in both formats, so a CSV/JSON pair of
    the same table parses to identical values and a written table round-trips
    bit-for-bit at that precision: a CSV number is its ``.12e`` text, a JSON
    number the shortest repr of the float that text parses to.  Each distinct
    column object is formatted once in one pass (:func:`_number_text`),
    however many names hold it; one row template, the separators with a hole
    per cell, is repeated for every row, filled column by column and joined.
    The CSV text is ``csv.writer``'s with ``"\n"`` line ends: only text cells
    can need quotes, so only they go through its quoting rule (:func:`_csv_cell`).
    The JSON text is the layout of ``json.dumps(records, indent=1)``.

    ``path`` is rewritten in place: opened without ``O_TRUNC``, written, then
    cut to the new length if it is a regular file (not ``/dev/null``, a FIFO or
    ``/dev/stdout``), because ext4 forces out the new blocks of a file truncated
    to zero and written again (the ``auto_da_alloc`` rule), which made each
    rewrite of a small table several times slower.  Mode, umask, symlinks and
    the inode behave as with ``open(path, "w")``.  Neither way is atomic: an
    interrupted write leaves the new bytes, then the old file's tail.
    """
    columns, shape, size = table.columns, table.shape, table.size
    if not size:
        raise ValueError("refusing to emit an empty table")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    distinct = {id(column): column for column in columns.values()}
    texts = {key: _column_text(column, shape, fmt) for key, column in distinct.items()}
    cells = [texts[id(column)] for column in columns.values()]
    if not cells:
        text = "\n" * (size + 1) if fmt == "csv" else "[\n" + " {},\n" * (size - 1) + " {}\n]\n"
    else:
        if fmt == "csv":
            names = list(map(_csv_cell, columns))
            if len(cells) == 1:  # csv.writer writes a row of one empty cell as '""'
                names, cells = [names[0] or '""'], [[c or '""' for c in cells[0]]]
            head, seps, end = ",".join(names) + "\n", [","] * (len(cells) - 1) + ["\n"], "\n"
        else:
            keys = [json.dumps(name) + ": " for name in columns]
            head, end = "[\n {\n  " + keys[0], "\n }\n]\n"
            seps = [",\n  " + key for key in keys[1:]] + ["\n },\n {\n  " + keys[0]]
        template = [piece for sep in seps for piece in (None, sep)] * size
        for k, column in enumerate(cells):
            template[2 * k::2 * len(cells)] = column
        template[-1] = end
        text = head + "".join(template)
    if path is not None:
        import stat  # loaded with os, so this costs no import time
        with open(path, "w", encoding="utf-8", newline="", opener=_open_in_place) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # cut the old tail; /dev/null or a FIFO has none
    return text


def _open_in_place(path, flags):
    """``open``'s opener for :func:`emit`: ``os.open`` without ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)
