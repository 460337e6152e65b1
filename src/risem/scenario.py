"""Scenario files: parsing, validation, and angle sweeps.

A scenario is a YAML document with sections `wave`, `geometry`, `incident`,
`observation`, `configure` and `output`. Unknown keys are rejected. Angles
are in degrees at this boundary and converted to radians internally; lengths
are in the same unit as the wavelength (the presets use wavelength = 1).
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import re
import reprlib
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .core import Direction, PlaneWave, WaveContext, _check_result
from .config import (ReshapeSolution, beam_reshape, monte_carlo_power_grid,
                     phase_compensation, random_phase_draw, random_phase_miso_expected_power)
from .linear import (LinearRis, MimoSystem, _field, _two_product, dft_scatter_grid,
                     mimo_on_angles)
from .patch import Patch
from .surface import RisGeometry, UnitCell, _RefusedRow, _field_magnitude

DEFAULT_RADIUS_WAVELENGTHS = 100.0


class ScenarioError(ValueError):
    """Malformed or invalid scenario text."""


def _is_finite_number(value) -> bool:
    # the bound also rejects NaN, and integers too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_floats(values: list) -> np.ndarray:
    """The values as a float array, NaN for each that is not a finite number (_is_finite_number).

    Checked as a column where it can be: one type test, where a bool is not an
    int, and one conversion, which an int past the float range fails. An int
    just past the largest float rounds to it instead, so a column that reaches
    it is read value by value, as is one that fails.
    """
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            column = np.array(values, dtype=float)
            if np.all(np.abs(column) < sys.float_info.max):
                return column
    return np.array([v if _is_finite_number(v) else np.nan for v in values], dtype=float)


def _is_numbers(value, count: int) -> bool:
    """A list of `count` finite numbers."""
    return (isinstance(value, list) and len(value) == count
            and all(_is_finite_number(v) for v in value))


_REQUIRED = object()
# A message names at most this many unknown keys or items of a refused value, and
# quotes it through _QUOTE: 6 levels deep and 200 characters a string or other repr
# at most, an int whole where str can write it. So a message is one short line, and its
# repr never recurses deeper than 6 levels, whatever the value.
_NAMED = 20


class _Quote(reprlib.Repr):
    """reprlib.Repr, with an int past the digits that str writes in hex (which has no
    digit limit), cut as any other long repr is."""

    def repr_int(self, x, level):
        with contextlib.suppress(ValueError):
            return super().repr_int(x, level)
        head = (self.maxother - 3) // 2
        return hex(x)[:head] + self.fillvalue + hex(x)[head + 3 - self.maxother:]


_QUOTE = _Quote()
vars(_QUOTE).update(dict.fromkeys(("maxtuple", "maxlist", "maxarray", "maxdict", "maxset",
                                   "maxfrozenset", "maxdeque"), _NAMED),
                    maxlevel=6, maxstring=200, maxother=200, maxlong=sys.maxsize)


class _Section:
    """One mapping of the scenario text, read through typed getters.

    Construction refuses a non-mapping and any key outside `keys`. A getter
    returns the default when its key is absent (a key without a default is
    required) and refuses a bad value with "'<section>.<key>' must be ...".
    A name of None is the top level, whose keys are named without a prefix.
    """

    def __init__(self, node, name: str | None, keys):
        where = name or "scenario"
        if not isinstance(node, dict):
            raise ScenarioError(f"section '{where}' must be a mapping")
        # YAML keys need not be strings: str() names 1 and ~ as well
        unknown = sorted(str(k) for k in node if k not in keys)
        if unknown:
            more = f" and {len(unknown) - _NAMED} more" if len(unknown) > _NAMED else ""
            raise ScenarioError(
                f"unknown key(s) in '{where}': {', '.join(unknown[:_NAMED])}{more}")
        self.node, self.name, self._prefix = node, name, f"{name}." if name else ""

    def __contains__(self, key) -> bool:
        return key in self.node

    def value(self, key: str, ok, what: str, default=_REQUIRED):
        """node[key] if ok(node[key]) holds; the default if the key is absent."""
        value = self.node.get(key, _REQUIRED)
        if value is _REQUIRED:
            if default is _REQUIRED:
                raise ScenarioError(f"'{self._prefix}{key}' must be {what}, but is missing")
            return default
        if not ok(value):
            raise ScenarioError(
                f"'{self._prefix}{key}' must be {what}, got {_QUOTE.repr(value)}")
        return value

    def number(self, key: str, default=_REQUIRED):
        """A finite number as a float; the default as given if the key is absent."""
        value = self.value(key, _is_finite_number, "a finite number", default)
        return None if value is None else float(value)

    def positive_int(self, key: str) -> int:
        return self.value(key, lambda v: _is_int(v) and v >= 1, "a positive integer")

    def _list(self, key: str) -> list:
        return self.value(key, lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list")

    def items(self, key: str, keys) -> list:
        """The non-empty list under key as sections named '<key>[i]', each with its keys."""
        return [_Section(item, f"{self._prefix}{key}[{i}]", keys)
                for i, item in enumerate(self._list(key))]

    def rows(self, key: str, keys, read_columns, read_row):
        """read_columns(rows) of the non-empty list of rows under key, mappings of keys.

        Every row's keys are checked before any value is read, so a row that
        is not a mapping of keys is named first, wherever it stands. Where
        read_columns raises _RefusedRow, only the first refused row is read
        again, as the section '<key>[i]' by read_row, which names it in the
        words of the typed reads.
        """
        rows = self._list(key)
        row = None
        # a list of dicts is checked in C, and a row that is not a mapping of keys found in Python
        if not (set(map(type, rows)) == {dict} and all(map(keys.issuperset, rows))):
            row = next((i for i, r in enumerate(rows)
                        if not (isinstance(r, dict) and r.keys() <= keys)), None)
        if row is None:
            try:
                return read_columns(rows)
            except _RefusedRow as refused:
                row = refused.row
        section = _Section(rows[row], f"{self._prefix}{key}[{row}]", keys)
        read_row(section)
        # not reached: a row refused in a column is refused on its own
        raise ScenarioError(f"invalid '{section.name}'")


def _tagged(node, name: str, tag: str, table: dict):
    """(kind, section) of a section whose allowed keys are table[kind], kind = node[tag]."""
    # every key is allowed until the kind, and so the key set, is known
    kind = _Section(node, name, node).value(tag, lambda v: isinstance(v, str) and v in table,
                                            "one of " + ", ".join(table))
    return kind, _Section(node, name, {tag, *table[kind]})


@dataclass(frozen=True, eq=False)
class ObservationSpec:
    """Radius and the scatter (theta, phi) angles in degrees, one pair per point."""

    radius: float
    theta_deg: np.ndarray
    phi_deg: np.ndarray


@dataclass(frozen=True)
class RandomScheme:
    seed: int = 0
    expectation: bool = False


@dataclass(frozen=True)
class CompensateScheme:
    theta_i_deg: float
    theta_s_deg: float


@dataclass(frozen=True)
class ReshapeScheme:
    desired_pattern_file: str
    truncation_tol: float = 1e-8


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None


@dataclass(frozen=True)
class Scenario:
    kind: str  # geometry.kind as written: patch, linear or planar
    geometry: LinearRis | RisGeometry
    waves: tuple
    observation: ObservationSpec
    scheme: RandomScheme | CompensateScheme | ReshapeScheme | None
    output: OutputSpec
    defaults_filled: tuple
    source_hash: str


_GEOMETRY_KEYS = {"patch": {"a", "b", "area"},
                  "linear": {"n", "spacing", "a", "b", "area"},
                  "planar": {"cells"}}
_SCHEME_KEYS = {"random": {"seed", "expectation"},
                "compensate": {"theta_i_deg", "theta_s_deg"},
                "reshape": {"desired_pattern_file", "truncation_tol"}}


def _parse_wave_section(node, defaults):
    wave = _Section({} if node is None else node, "wave", {"wavelength", "gamma"})
    if "wavelength" not in wave:
        defaults.append("wave.wavelength=1.0")
    if "gamma" not in wave:
        defaults.append("wave.gamma=-1.0")
    wavelength = wave.number("wavelength", 1.0)
    gamma = wave.value("gamma", lambda v: _is_finite_number(v) or _is_numbers(v, 2),
                       "a finite number or [re, im] pair", -1.0)
    return _build("wave", WaveContext, wavelength,
                  complex(*gamma) if isinstance(gamma, list) else complex(gamma))


def _build(name, make, *args, **kwargs):
    """Call a model constructor; the ValueError it raises becomes a ScenarioError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid '{name}': {exc}") from exc


_CELL_KEYS = {"position", "a", "b", "area", "phase"}
_POINT_KEYS = {"theta_deg", "phi_deg"}


def _parse_geometry(node, ctx):
    """The geometry kind and its model: a LinearRis, or a RisGeometry for patch and planar.

    Planar cells are read as columns (_Section.rows), and RisGeometry.from_arrays
    checks them.
    """
    kind, geo = _tagged(node, "geometry", "kind", _GEOMETRY_KEYS)
    if kind == "planar":
        return kind, geo.rows("cells", _CELL_KEYS,
                              lambda cells: RisGeometry.from_arrays(*_cell_columns(cells), ctx),
                              _read_cell)
    a, b, area = geo.number("a"), geo.number("b"), geo.number("area", None)
    if kind == "patch":
        return kind, RisGeometry((_build("geometry", Patch, a, b, area),), ctx)
    return kind, _build("geometry", LinearRis.uniform, geo.positive_int("n"),
                        geo.number("spacing"), a * b if area is None else area, width=b, ctx=ctx)


def _cell_columns(cells):
    """The planar cells, mappings of cell keys, as from_arrays's (positions, a, b, areas, phases).

    Every value that the per-cell reads refuse is NaN, which from_arrays
    refuses too: a position that is not a list of three, a missing edge, and a
    value that is not a finite number, null included. areas is a list, with
    None for an area not given.
    """
    positions = [p if isinstance(p, list) and len(p) == 3 else [None] * 3
                 for p in (c.get("position") for c in cells)]
    positions, a, b, areas, phases = (_finite_floats(values) for values in (
        list(itertools.chain.from_iterable(positions)), [c.get("a") for c in cells],
        [c.get("b") for c in cells], [c.get("area", 1.0) for c in cells],
        [c.get("phase", 0.0) for c in cells]))
    return (positions.reshape(-1, 3), a, b,
            [area if "area" in c else None for c, area in zip(cells, areas.tolist())], phases)


def _read_cell(c: _Section):
    """Read one cell by the typed reads and UnitCell, which refuse what from_arrays refuses."""
    position = c.value("position", lambda v: _is_numbers(v, 3), "a list of three finite numbers")
    _build(c.name, UnitCell, np.array(position, dtype=float), c.number("a"), c.number("b"),
           c.number("area", None), c.number("phase", 0.0))


def _point_columns(points):
    """The scatter points, mappings of point keys, as (theta_deg, phi_deg) columns.

    A missing theta_deg, and an angle that is not a finite number, is NaN, and
    _RefusedRow names the first point that holds one.
    """
    thetas = _finite_floats([p.get("theta_deg") for p in points])
    phis = _finite_floats([p.get("phi_deg", 0.0) for p in points])
    refused = np.isnan(thetas) | np.isnan(phis)
    if refused.any():
        raise _RefusedRow("a scatter angle must be a finite number", int(refused.argmax()))
    return thetas, phis


def _read_point(p: _Section):
    """Read one point by the typed reads, which refuse what _point_columns refuses."""
    p.number("theta_deg")
    p.number("phi_deg", 0.0)


def _parse_incident_wave(w: _Section, linear: bool) -> PlaneWave:
    theta = w.number("theta_deg")
    phi = w.number("phi_deg", 0.0)
    amp = w.number("amplitude", 1.0)
    if linear:
        if not -90.0 <= theta <= 90.0:
            raise ScenarioError(
                f"'{w.name}.theta_deg' must lie in [-90, 90] for a linear array")
    else:
        if not 0.0 <= theta <= 90.0:
            raise ScenarioError(f"'{w.name}.theta_deg' must lie in [0, 90]")
        if not -180.0 <= phi <= 180.0:
            raise ScenarioError(f"'{w.name}.phi_deg' must lie in [-180, 180]")
    return _build(w.name, PlaneWave, Direction(math.radians(theta), math.radians(phi)), amp)


def _parse_observation(node, ctx, defaults, linear: bool):
    """Radius and scatter angles; a linear array's scatter angles lie in [-90, 90] deg."""
    default_radius = DEFAULT_RADIUS_WAVELENGTHS * ctx.wavelength
    obs = _Section({} if node is None else node, "observation", {"radius", "grid", "points"})
    if "radius" not in obs:
        defaults.append(f"observation.radius={default_radius}")
    radius = obs.number("radius", default_radius)
    if radius <= 0:
        raise ScenarioError("'observation.radius' must be positive")
    if "grid" in obs and "points" in obs:
        raise ScenarioError("'observation' takes either 'grid' or 'points', not both")
    if "points" in obs:
        thetas, phis = obs.rows("points", _POINT_KEYS, _point_columns, _read_point)
    else:
        grid_node = obs.node.get("grid")
        if grid_node is None:
            defaults.append("observation.grid=(-90, 90, 361)")
            grid_node = {"start_deg": -90.0, "stop_deg": 90.0, "count": 361}
        grid = _Section(grid_node, "observation.grid",
                        {"start_deg", "stop_deg", "count", "phi_deg"})
        start, stop = grid.number("start_deg"), grid.number("stop_deg")
        count = grid.positive_int("count")
        if stop < start:
            raise ScenarioError("'observation.grid' must be monotone: start_deg <= stop_deg")
        phi = grid.number("phi_deg", 0.0)
        thetas, phis = np.linspace(start, stop, count), np.full(count, phi)
    outside = np.flatnonzero(np.abs(thetas) > 90.0)
    if linear and outside.size:
        where = (f"observation.points[{outside[0]}].theta_deg" if "points" in obs
                 else "observation.grid")
        raise ScenarioError(f"'{where}' must lie in [-90, 90] for a linear array")
    return ObservationSpec(radius, thetas, phis)


def _parse_scheme(node, geometry):
    if node is None:
        return None
    kind, cfg = _tagged(node, "configure", "scheme", _SCHEME_KEYS)
    if not isinstance(geometry, LinearRis):
        raise ScenarioError(f"scheme '{kind}' requires a linear geometry")
    if kind == "random":
        return RandomScheme(cfg.value("seed", lambda v: _is_int(v) and v >= 0,
                                      "a non-negative integer", 0),
                            cfg.value("expectation", lambda v: isinstance(v, bool),
                                      "a boolean", False))
    if kind == "compensate":
        return CompensateScheme(cfg.number("theta_i_deg"), cfg.number("theta_s_deg"))
    return ReshapeScheme(cfg.value("desired_pattern_file",
                                   lambda v: isinstance(v, str) and v != "", "a path"),
                         cfg.number("truncation_tol", 1e-8))


def _parse_output(node, defaults):
    if node is None:
        defaults.append("output.format=csv")
        return OutputSpec()
    out = _Section(node, "output", {"format", "path"})
    return OutputSpec(out.value("format", lambda v: v in ("csv", "json"), "csv or json", "csv"),
                      out.value("path", lambda v: v is None or isinstance(v, str),
                                "a string", None))


# The event pass refuses a text nested this many collections deep as nesting too
# deep, as the pure-Python loader would, which takes seconds to do so on one long
# line. libyaml's scanner takes time quadratic in flow depth (its events reach 2000
# levels of a flow text in 35 ms, and 10 000 in 0.33 s); a value 1500 levels deep
# stays on the pass.
_MAX_DEPTH = 2000
_TOO_DEEP = "scenario parse error: nesting too deep"


# What PyYAML's constructors raise on a scalar they cannot read: ValueError for
# '!!int x', IndexError for an empty '!!float' or '!!int', KeyError for '!!bool x',
# AttributeError for '!!timestamp x'.
_CONSTRUCTOR_ERRORS = (ValueError, LookupError, AttributeError)


class _LocatingLoader(yaml.SafeLoader):
    """yaml.SafeLoader, whose constructor failure on a scalar is a ConstructorError at it.

    The scalar that fails is the one the construction meets first. The reason
    quotes its text through _QUOTE and names its tag, and not the constructor's
    own text, which holds the scalar whole.
    """

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except _CONSTRUCTOR_ERRORS as exc:
            if not isinstance(node, yaml.ScalarNode):
                raise
            reason = (f"cannot read {_QUOTE.repr(node.value)} as "
                      f"{node.tag.replace('tag:yaml.org,2002:', '!!')}")
            raise yaml.constructor.ConstructorError(None, None, reason, node.start_mark) from exc


class _HandOver(Exception):
    """A text that the event pass leaves to the pure-Python loader; _read_rows returns it."""


class _TooDeep(Exception):
    """A text nested _MAX_DEPTH collections deep, which the event pass refuses."""


# what the event pass raises on a text it leaves to the pure-Python loader: a hand-over,
# a libyaml error, an unhashable key, a constructor error, or the ValueError of a lone
# surrogate
_PASS_ERRORS = (_HandOver, yaml.YAMLError, TypeError, *_CONSTRUCTOR_ERRORS)


_STR_TAG = "tag:yaml.org,2002:str"
_STARTS = {yaml.MappingStartEvent: dict, yaml.SequenceStartEvent: list}
_ENDS = {yaml.MappingEndEvent, yaml.SequenceEndEvent}
# the state of a sequence being filled, and of a mapping waiting for its next key
_ITEM, _NO_KEY = object(), object()


# without libyaml the class is never used, and stands on the pure-Python loader
class _EventLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """yaml.CSafeLoader that builds the document from libyaml's events in one pass.

    A mapping is a dict and a sequence a list, made at its start event and
    filled in order through an explicit stack, so the pass never recurses and
    no node tree is built. A scalar's tag comes from the loader's own resolve,
    and the scalar is built by the SafeConstructor function that tag picks; a
    str is its value. Without path resolvers, which SafeLoader has none of,
    resolve reads only the value of a plain scalar, and a collection needs no
    resolve: an untagged one is a map or a seq. A scalar constructor's own
    error propagates. The pass raises _HandOver where it meets an explicit tag,
    an anchor, an alias, a scalar tag other than null, bool, int, float, str or
    timestamp (a merge key '<<' and a value key '=' have tags of their own) or
    a second document, _TooDeep at a collection _MAX_DEPTH deep, and an
    unhashable key raises TypeError. _read_rows runs the pass once per text, on
    the text with its tables cut.
    """

    # the SafeConstructor function of each scalar tag the event pass reads, but str
    _scalars = {tag: yaml.constructor.SafeConstructor.yaml_constructors[tag] for tag in (
        "tag:yaml.org,2002:null", "tag:yaml.org,2002:bool", "tag:yaml.org,2002:int",
        "tag:yaml.org,2002:float", "tag:yaml.org,2002:timestamp")}

    def get_single_data(self):
        """The stream's one document, or None for none."""
        get_event, resolve, scalars, scalar_node = (self.get_event, self.resolve, self._scalars,
                                                    yaml.ScalarNode)
        get_event()  # the stream start
        if type(get_event()) is yaml.StreamEndEvent:
            return None
        # the root is the one item of a list, and stack holds the (collection, key) of
        # each collection that encloses the one being filled
        root = collection = []
        key, stack = _ITEM, []
        while True:
            event = get_event()
            kind = type(event)
            if kind in _ENDS:
                collection, key = stack.pop()
                continue
            if kind is yaml.DocumentEndEvent:
                break
            # every alias has an anchor, so this leaves aliases to the Python loader too
            if event.anchor is not None or event.tag is not None:
                raise _HandOver
            if kind is yaml.ScalarEvent:
                value = event.value
                tag = resolve(scalar_node, value, event.implicit)
                if tag != _STR_TAG:
                    make = scalars.get(tag)
                    if make is None:
                        raise _HandOver
                    value = make(self, scalar_node(tag, value, None, None))
            else:
                # the new collection is len(stack) + 1 deep
                if len(stack) >= _MAX_DEPTH - 1:
                    raise _TooDeep
                value = _STARTS[kind]()
            if key is _ITEM:
                collection.append(value)
            elif key is _NO_KEY:
                key = value
            else:
                # a collection key raises TypeError here
                collection[key] = value
                key = _NO_KEY
            if kind is not yaml.ScalarEvent:
                stack.append((collection, key))
                collection, key = value, (_NO_KEY if kind is yaml.MappingStartEvent else _ITEM)
        if type(get_event()) is not yaml.StreamEndEvent:
            raise _HandOver
        return root[0]


def _row(item: str) -> str:
    """The grammar of a table row: '- {', items joined by ', ', then '}' and a line end."""
    return rf"- \{{(?:(?:{item})(?:, (?:{item}))*)?\}}\n"


# a plain scalar that YAML 1.1 resolves to a decimal int (no leading zero, so never
# octal) or, with the dot, to a float (an exponent only after the dot and signed, no
# '_' or ':'). At most 640 digits come before the dot, which int() reads under any
# digit limit (sys.set_int_max_str_digits takes 0 or at least 640).
_NUMBER = r"-?(?:0|[1-9][0-9]{0,639})(?:\.[0-9]+(?:[eE][-+][0-9]+)?)?"
# A planar cell on one line, '- {position: [x, y, z], a: .., b: .., area: .., phase: ..}',
# and a scatter point, '- {theta_deg: .., phi_deg: ..}', each with any of its keys in any
# order and every value a plain decimal (_NUMBER).
_CELL_ROW = _row(rf"position: \[{_NUMBER}, {_NUMBER}, {_NUMBER}\]|(?:a|b|area|phase): {_NUMBER}")
_POINT_ROW = _row(rf"(?:theta_deg|phi_deg): {_NUMBER}")
# the tables that the row reader reads: (section, key, the keys of a row, the row grammar)
_TABLES = (("geometry", "cells", _CELL_KEYS, _CELL_ROW),
           ("observation", "points", _POINT_KEYS, _POINT_ROW))
# blank and comment lines, which may stand between the items of a block sequence
_BLANK_LINES = re.compile(r"(?:[ ]*(?:#.*)?\n)*")


def _table_rows(text: str, key: str, row: str):
    """(start, end, indent) of the rows of key's table in text, or None.

    The rows are the run of lines of the row grammar at one indent that
    starts on the line after the first 'key:', past blank and comment lines
    only. Anything else before them, such as a first row the grammar refuses,
    or an item of the same sequence after them, such as a later row it
    refuses, is None: the table is left to the event pass without the cost of
    reading its rows.
    """
    at = text.find(key + ":")
    line_end = text.find("\n", at) if at >= 0 else -1
    if line_end < 0:
        return None
    # Every row at the first row's indent, in one match. Anchored at a line start, a
    # match tries each line once, also a line of thousands of spaces. A block collection
    # at column c lies at most 2c + 2 collections deep (each enclosing block collection
    # starts further in, and each may hold one indentless sequence), so a row indented
    # under 100 columns never nears _MAX_DEPTH. The possessive repeat keeps no
    # backtracking state per row. A pattern is compiled at its first use, and
    # re.compile caches it.
    rows = re.compile(rf"^(?=( {{0,99}})- )(?:\1{row})++", re.MULTILINE).match(
        text, _BLANK_LINES.match(text, line_end + 1).end())
    if rows is None:
        return None
    indent, start, end = rows.group(1), rows.start(), rows.end()
    if text.startswith(indent + "-", _BLANK_LINES.match(text, end).end()):
        return None
    return start, end, indent


def _read_rows(text: str):
    """The document of text, read by one event pass with its tables cut, or _HandOver.

    The rows of each table of _TABLES that _table_rows finds are read as one
    JSON array: the row grammar is a part of JSON's once its keys are quoted,
    and json reads a number with a dot by float() and one without by int(), as
    the event pass does. Unless a row repeats a key or an earlier table took
    the same rows, the table is cut from the text and replaced by one
    placeholder item, whose word occurs nowhere in text. The event pass reads
    the result once, and each placeholder, which must be the one item of its
    table's list, such as geometry.cells, is replaced by the rows read. A text
    the pass hands over or libyaml refuses, or whose placeholder is out of
    place, is _HandOver, for the pure-Python loader to read whole: the row
    reader decides no message. A text the pass finds _MAX_DEPTH deep is
    refused as nesting too deep. A text with no table costs a str.find per
    table, and compiles no pattern.
    """
    found = sorted((rows, section, key, keys) for section, key, keys, row in _TABLES
                   if (rows := _table_rows(text, key, row)))
    word = "rows"
    while found and word in text:
        word += word
    parts, tables, last = [], [], 0
    for (start, end, indent), section, key, keys in found:
        if start < last:  # both keys stand before one run of rows ('cells: # points:')
            continue
        table = text[start:end]
        body = table[len(indent) + 2:-1].replace("\n" + indent + "- ", ",")
        # a key before the shorter keys it ends with ('area' before 'a'), so that 'a:' is
        # left only where a is the key
        for name in sorted(keys, key=len, reverse=True):
            body = body.replace(name + ":", f'"{name}":')
        rows = json.loads("[" + body + "]")
        # one ':' per key: a table whose rows repeat a key stays in the text
        if sum(map(len, rows)) != table.count(":"):
            continue
        parts += [text[last:start], indent + "- " + word + key + "\n"]
        tables.append((section, key, rows))
        last = end
    try:
        doc = yaml.load("".join(parts) + text[last:], Loader=_EventLoader)
    except _TooDeep:
        raise ScenarioError(_TOO_DEEP) from None
    except _PASS_ERRORS:
        return _HandOver
    for section, key, rows in tables:
        node = doc.get(section) if isinstance(doc, dict) else None
        if not (isinstance(node, dict) and node.get(key) == [word + key]):
            return _HandOver
        node[key] = rows
    return doc


def _load_yaml(text: str):
    """The YAML document in text, read by libyaml's event pass where it can, else by Python.

    libyaml's path is one event pass of _EventLoader, behind the row reader
    (_read_rows), which cuts the two tables of _TABLES, geometry.cells and
    observation.points, where their rows are one line each, and reads them
    without libyaml. Incident waves are left to the pass: a scenario holds a
    few. Both loaders share the Python constructor and resolver, so they give
    the same objects. A text is read either by that one pass or by the
    pure-Python loader, never by both. Every text the pass hands over, a
    tagged or anchored one included, and every text libyaml refuses, goes to
    the pure-Python loader: libyaml refuses some texts the Python loader
    accepts (such as '{a:[1]}'), words and places its errors differently, and
    reads a bare '!' on an empty value as '', not null. A text the pass finds
    _MAX_DEPTH deep is refused as nesting too deep.
    """
    if yaml.__with_libyaml__:
        doc = _read_rows(text)
        if doc is not _HandOver:
            return doc
    try:
        return yaml.load(text, Loader=_LocatingLoader)
    except yaml.MarkedYAMLError as exc:
        raise ScenarioError(f"scenario parse error{_at(exc.problem_mark)}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc


def _at(mark) -> str:
    """' at line L, column C' (1-based) for a YAML mark, and '' for None."""
    return f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; unknown keys are rejected."""
    try:
        return _scenario(_load_yaml(text), text)
    except RecursionError as exc:
        # from the pure-Python loader, whose recursion runs on Python frames
        raise ScenarioError(_TOO_DEEP) from exc


def _scenario(doc, text: str) -> Scenario:
    if doc is None:
        raise ScenarioError("scenario is empty")
    top = _Section(doc, None, {"wave", "geometry", "incident", "observation", "configure",
                               "output"})
    if "geometry" not in top:
        raise ScenarioError("missing required section 'geometry'")

    defaults: list[str] = []
    ctx = _parse_wave_section(doc.get("wave"), defaults)
    kind, geometry = _parse_geometry(doc["geometry"], ctx)
    # an empty or null incident list is allowed: every field is then zero
    linear = isinstance(geometry, LinearRis)
    waves = () if doc.get("incident") in (None, []) else tuple(
        _parse_incident_wave(w, linear)
        for w in top.items("incident", {"theta_deg", "phi_deg", "amplitude"}))
    observation = _parse_observation(doc.get("observation"), ctx, defaults, linear)
    scheme = _parse_scheme(doc.get("configure"), geometry)
    output = _parse_output(doc.get("output"), defaults)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Scenario(kind, geometry, waves, observation, scheme, output,
                    tuple(defaults), digest)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepResult:
    """Rows of scatter angle, field magnitude and RCS with dB companions."""

    theta_deg: np.ndarray
    magnitude: np.ndarray
    rcs: np.ndarray
    phi_deg: np.ndarray | None = None

    @property
    def magnitude_db(self) -> np.ndarray:
        return decibels(self.magnitude, 20.0)

    @property
    def rcs_db(self) -> np.ndarray:
        return decibels(self.rcs, 10.0)

    def columns(self) -> dict:
        cols = {"theta_s_deg": self.theta_deg}
        if self.phi_deg is not None:
            cols["phi_s_deg"] = self.phi_deg
        cols.update({"field_magnitude": self.magnitude,
                     "field_magnitude_db": self.magnitude_db,
                     "rcs": self.rcs, "rcs_db": self.rcs_db})
        return cols

    def to_json_dict(self) -> dict:
        """Columns as lists; a non-finite entry (the dB of a zero field) becomes None."""
        doc = {}
        for name, values in self.columns().items():
            doc[name] = np.asarray(values).tolist()
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                doc[name][i] = None
        return doc


def decibels(values, per_decade: float) -> np.ndarray:
    """per_decade * log10(values); a zero gives -inf without a warning."""
    with np.errstate(divide="ignore"):
        return per_decade * np.log10(values)


def _output(path: str | None):
    """The text file at path with LF line ends, or stdout (left open) for no path."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


# values that write_csv and json_text format at a time: a block's temporaries stay in the
# heap from one file write to the next, where 16 384-value blocks were faulted in again
# after every write
_BLOCK = 2048
# the band around 1/2 of the scaled value's fraction whose rounding the scale's error may
# change: within it, and wherever the scale misplaces the point, '%' writes the value
_WINDOW = 2.0 ** -10
# the bands, in units of the 17th digit, around each rounding's tie and around the edge of
# the interval of v in which the JSON digit rule leaves v to repr: its scale errs by < 1e-14
_JSON_WINDOW = 2.0 ** -32


@functools.cache
def _decimal_tables(digits: int, top: int, point_zero: bool) -> tuple:
    """The tables of a writer of up to `digits` significant digits, made on first use:
    (words, zeros, exponents, forms, layout).

    words[g] is the word "d.d.d.d." of g < 10^4 and zeros[g] counts its trailing
    zeros. A mantissa of `digits` digits, 4 k or 4 k + 1, is written as groups of 4,
    after a lone first digit that shares the word of the sign. By e + 320: exponents
    holds the word "e+dd" or "e-ddd", and forms[e] + 2 (k - digits) + negative is the
    layout row of k significant digits in e's form: fixed for e = -4..top, else
    scientific. layout[j][row] is word j of that row: the sign and any "0.000"
    prefix, then masks of the digits written and their points, then of the exponent.
    With point_zero a fixed form writes a point and a 0 after an integer.
    """
    g = np.arange(10 ** 4, dtype=np.int16)
    chars = np.full((g.size, 8), ord("."), dtype=np.uint8)
    chars[:, ::2] = 48 + g[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16) % 10
    zeros = sum((g % 10 ** i == 0).astype(np.uint8) for i in range(1, 5))
    exps = range(-320, 320)
    words = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in exps)
    science = top + 5
    forms = [2 * digits * ((e + 4 if -4 <= e <= top else science) + 1) - 2 for e in exps]
    rows = []
    for form, k in itertools.product(range(science + 1), range(1, digits + 1)):
        fixed = form < science
        # the scientific form places its point as the fixed form of exponent 0 does
        e = form - 4 if fixed else 0
        dot = point_zero and fixed
        # each digit's byte, then the byte of the point that may follow it
        masks = bytes(255 * kept for i in range(digits)
                      for kept in (i < max(k, e + 1 + dot), i == e and (i < k - 1 or dot)))
        masks += (bytes(7) if fixed else b"\xff" * 7) + b"\0"
        prefix = b"0." + b"0" * (-e - 1) if e < 0 else b""
        rows += [(sign + prefix).ljust(8 - 2 * (digits % 4), b"\0") + masks
                 for sign in (b"\0", b"-")]
    return (chars.view("<u8").ravel(), zeros, np.frombuffer(words, "<u8"), np.array(forms),
            np.frombuffer(b"".join(rows), "<u8").reshape(len(rows), -1).T.copy())


def _decimal_text(x: np.ndarray, groups: np.ndarray, e: np.ndarray, exact: np.ndarray,
                  seps: np.ndarray, tables: tuple, fallback) -> str:
    """Each v of x in a row of the tables' layout, from its mantissa's digit groups (the
    most significant first) and e + 320, then the top byte of its word in seps; the
    rows of the values outside exact are fallback(list of them). NULs are dropped."""
    words, zeros, exponents, forms, layout = tables
    tail = zeros[groups[0]]
    for g in groups[1:]:
        tail = zeros[g] + (g == 0) * tail
    key = forms[e] - 2 * tail + np.signbit(x)
    group_words = words[groups]
    # a lone first digit's word "0.0.0.d." gives its two last bytes to the sign's word
    lone = len(groups) == len(layout) - 1
    first = group_words[0] | np.uint64(2 ** 48 - 1) if lone else ~np.uint64(0)
    out = np.empty((len(layout), x.size), dtype="<u8")
    for j, word in enumerate([first, *group_words[lone:], exponents[e]]):
        np.bitwise_and(word, layout[j][key], out=out[j])
    rest = np.flatnonzero(~exact)
    out[:, rest] = fallback(x[rest].tolist())
    out[-1] |= seps
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


@functools.cache
def _csv_tables() -> tuple:
    """'%.12g''s _decimal_tables, and by e + 320 two nearest doubles whose product is
    10^(11 - e)."""
    scales = [[float(f"1e{(11 - e) // 2}"), float(f"1e{11 - e - (11 - e) // 2}")]
              for e in range(-320, 320)]
    return _decimal_tables(12, 11, False), np.array(scales).T


def _printf_rows(values: list) -> np.ndarray:
    """The NUL-padded 40-byte rows of '%.12g' % v, one column of five words each."""
    return np.array(["%.12g" % v for v in values], dtype="S40").view("<u8").reshape(-1, 5).T


def _csv_text(x: np.ndarray, seps: np.ndarray) -> str:
    """'%.12g' % v for each v of x, each followed by the top byte of its word in seps.

    For |v| in [1e-300, 1e300], e = floor(log10 |v|) and s = |v| 10^(11 - e), from
    two table scales, is within four roundings (4.4e-4) of exact: so where floor(s)
    is in [10^11, 10^12) and the fraction outside 1/2 +- _WINDOW, m = round(s) is
    the 12-digit mantissa (10^12 carries to 10^11, e + 1). Every other v, a zero,
    one not finite or out of range, or one those two rules reject, is written by
    '%.12g' % v itself.
    """
    tables, scales = _csv_tables()
    a = np.abs(x)
    exact = (a >= 1e-300) & (a <= 1e300)
    np.copyto(a, 1.0, where=~exact)
    e = np.floor(np.log10(a)).astype(np.intp) + 320
    s = a * scales[0][e] * scales[1][e]
    m = np.floor(s)
    s -= m
    exact &= (np.abs(s - 0.5) > _WINDOW) & (m >= 1e11) & (m < 1e12)
    m += s > 0.5
    carry = m == 1e12
    m[carry] = 1e11
    e += carry
    # the digit groups m // 10^8, m // 10^4 mod 10^4 and m mod 10^4: exact below 2^53
    groups = np.floor(m / np.array([[1e8], [1e4], [1.0]]))
    groups[1:] -= groups[:2] * 1e4
    # a value that '%' writes may have a larger m: it takes rows that exist, then its own
    groups = np.minimum(groups, 9999).astype(np.intp)
    return _decimal_text(x, groups, e, exact, seps, tables, _printf_rows)


def write_csv(path: str | None, columns: dict) -> None:
    """Header row of the column names, then one row per index at 12 significant digits.

    The rows are formatted _BLOCK values at a time by _csv_text, and never
    built as one string; each value gives the bytes of '%.12g' % v, which is
    format(v, '.12g') for every float and int (an int is formatted as a float).
    As with zip, the shortest column sets the row count. No path writes to stdout.
    """
    values = [np.asarray(c, dtype=float) for c in columns.values()]
    rows = min(map(len, values), default=0)
    block = max(1, _BLOCK // max(1, len(values)))
    ends = np.array([ord(",")] * (len(values) - 1) + [ord("\n")], dtype="<u8") << np.uint64(56)
    seps = np.tile(ends, block)
    with _output(path) as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, rows, block):
            part = np.column_stack([v[start:min(start + block, rows)] for v in values]).ravel()
            fh.write(_csv_text(part, seps[:part.size]))


@functools.cache
def _json_tables() -> tuple:
    """repr's _decimal_tables, and by e + 320 for |e| <= 292 the rows hi, hi's halves of
    26 bits and lo of 10^(16 - e) = hi + lo to 2^-106 of itself (elsewhere 0).

    The halves are made here, as the split at run time would overflow from 10^292 on.
    """
    powers = np.zeros((4, 640))
    for e in range(-292, 293):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den
        n, d = hi.as_integer_ratio()
        fraction, exponent = math.frexp(hi)
        top = math.ldexp(round(fraction * 2 ** 26), exponent - 26)
        powers[:, e + 320] = hi, top, hi - top, (num * d - n * den) / (den * d)
    return _decimal_tables(17, 15, True), powers


def _repr_rows(values: list) -> np.ndarray:
    """The NUL-padded 48-byte rows of repr(v), and of null for a NaN (a None of the
    document), one column of six words each."""
    return (np.array([repr(v) if v == v else "null" for v in values], dtype="S48")
            .view("<u8").reshape(-1, 6).T)


def _json_floats(x: np.ndarray, seps: np.ndarray) -> str:
    """repr(v) for each v of x (which holds no infinity) and null for each NaN, each
    followed by the top byte of its word in seps.

    For |v| in [1e-290, 1e290] whose significand is not a power of 2 (whose interval
    is not symmetric), e = floor(log10 |v|) and s = |v| 10^(16 - e) is a double-double
    within 1e-14 of exact. Rounded to d = 15, 16 and 17 digits, s = m 10^(17 - d) + r,
    and m reads back as v where |r| < h = 2^(E - 54) 10^(16 - e), for v in
    [2^(E - 1), 2^E). The first such d gives repr's digits: the shortest, the nearest
    to v. repr(v) itself writes v where |r| is within _JSON_WINDOW of h or of the tie
    for a d up to that one, where m is 10^d, where log10 misplaced e, and elsewhere.
    """
    tables, powers = _json_tables()
    a = np.abs(x)
    exact = (a >= 1e-290) & (a <= 1e290)
    np.copyto(a, 1.5, where=~exact)
    significand, exponent = np.frexp(a)
    exact &= significand != 0.5
    e = np.floor(np.log10(a)).astype(np.intp) + 320
    hi, top, bottom, lo = np.take(powers, e, axis=1)
    p, q = _two_product(a, hi, (top, bottom))
    q += a * lo
    # s = mantissa + r17 with the 17-digit integer mantissa, below 2^63
    m = np.rint(p)
    q += p - m
    n = np.rint(q)
    mantissa = m.astype(np.int64) + n.astype(np.int64)
    # s = (mantissa - low) + w, with its two last digits low: rounded to 15 and 16 digits,
    # s moves from mantissa by w's rounding to a multiple of 100 and of 10
    low = mantissa % 100
    mantissa -= low
    w = low + (q - n)
    steps = np.array([[100.0], [10.0]])
    rounded = np.rint(w / steps) * steps
    r = np.abs(np.concatenate([w - rounded, [q - n]]))
    h = np.ldexp(hi, exponent - 54)
    inside = r < h
    sure = (np.abs(r - np.array([[50.0], [5.0], [0.5]])) > _JSON_WINDOW) & (
        np.abs(r - h) > _JSON_WINDOW)
    # the first d inside wins, where it and every d before it are sure
    exact &= sure[0] & (inside[0] | sure[1] & (inside[1] | sure[2] & inside[2]))
    mantissa += np.where(inside[0], rounded[0], np.where(inside[1], rounded[1], low)).astype(
        np.int64)
    exact &= mantissa < 10 ** 17
    groups = np.empty((5, x.size), dtype=np.intp)
    groups[0] = mantissa
    for j in range(4, 0, -1):
        np.divmod(groups[0], 10 ** 4, out=(groups[0], groups[j]))
    # a first digit 0 is a mantissa under 10^16, where log10 placed e one too high
    exact &= groups[0] > 0
    return _decimal_text(x, groups, e, exact, seps, tables, _repr_rows)


# the C encoder, for a scalar: it runs only without indent
_encode = json.JSONEncoder(allow_nan=False).encode
# a dict key as _encode quotes a str; any other key raises TypeError
_encode_key = json.encoder.encode_basestring_ascii
# the items a list needs to be a bulk leaf: a pass of _json_floats costs about 90 us
# whatever its size, more than repr takes on a few floats
_LEAF_FLOOR = 16
# the bytes that follow each value of a bulk leaf: the next value of a list or of a pair,
# the next pair, the leaf's end; each is replaced by its leaf's indented text
_NEXT, _PAIR, _END = "\1", "\2", "\3"


def json_text(doc) -> str:
    """Indented strict JSON and a newline; a non-finite number raises FloatingPointError.

    Keys are strings, as in every document risem writes; any other key raises
    TypeError. The text is then json.dumps(doc, indent=2, allow_nan=False) byte
    for byte, and raises where it raises. The floats of the two leaf shapes that
    hold the bulk of every document, a list of floats and None and a list of
    [float, float] pairs (lists or tuples), each of _LEAF_FLOOR items or more,
    are written _BLOCK at a time by _json_floats, each leaf where a NUL holds
    its place in the text of the rest. Everything else is written through the
    json module, one scalar at a time, so a document without such a leaf makes
    no _json_floats pass.
    """
    leaves = []
    try:
        parts = _json(doc, "\n", set(), leaves).split("\0")
    except ValueError as exc:
        raise FloatingPointError("the output holds non-finite numbers") from exc
    return "".join(itertools.chain(*zip(parts, _leaf_texts(leaves)), parts[-1:])) + "\n"


def _json(value, newline: str, markers: set, leaves: list) -> str:
    """value as json.dumps(value, indent=2) writes it after newline (and its indent), with a
    NUL for each bulk leaf, which is added to leaves.

    markers holds the ids of the containers value sits in, as in the json module.
    """
    if not isinstance(value, (list, tuple, dict)) or not value:
        return _encode(value)
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(value))
    inner = newline + "  "
    if isinstance(value, dict):
        items = (_encode_key(k) + ": " + _json(v, inner, markers, leaves)
                 for k, v in value.items())
        text = "{" + inner + ("," + inner).join(items) + newline + "}"
    else:
        text = "[" + inner + _json_items(value, inner, markers, leaves) + newline + "]"
    markers.discard(id(value))
    return text


def _json_items(items, inner: str, markers: set, leaves: list) -> str:
    """The items of a non-empty list, each after inner, as json.dumps(indent=2) writes them;
    for a bulk leaf of _LEAF_FLOOR items or more a NUL, with (its floats as an array with
    NaN for None, inner, whether it holds pairs) added to leaves."""
    if len(items) >= _LEAF_FLOOR:
        # floats and None only: an int, a bool or a float subclass takes the general path
        types = set(map(type, items))
        if types <= {float, type(None)}:
            values = np.array(items, dtype=float)
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                if items[i] is not None:
                    raise ValueError("Out of range float values are not JSON compliant")
            leaves.append((values, inner, False))
            return "\0"
        if (types <= {list, tuple} and set(map(len, items)) == {2}
                and set(map(type, itertools.chain.from_iterable(items))) == {float}):
            values = np.fromiter(itertools.chain.from_iterable(items), float, 2 * len(items))
            if not np.isfinite(values).all():
                raise ValueError("Out of range float values are not JSON compliant")
            leaves.append((values, inner, True))
            return "\0"
    return ("," + inner).join(_json(v, inner, markers, leaves) for v in items)


def _leaf_texts(leaves: list) -> list:
    """The text of each leaf of leaves, from one _json_floats pass over all their floats."""
    if not leaves:
        return []
    ends = []
    for values, _, pairs in leaves:
        end = np.full(values.size, ord(_NEXT), dtype="<u8")
        if pairs:
            end[1::2] = ord(_PAIR)
        end[-1] = ord(_END)
        ends.append(end)
    x = np.concatenate([values for values, _, _ in leaves])
    seps = np.concatenate(ends) << np.uint64(56)
    text = "".join(_json_floats(x[i:i + _BLOCK], seps[i:i + _BLOCK])
                   for i in range(0, x.size, _BLOCK))
    texts = []
    for body, (_, inner, pairs) in zip(text.split(_END), leaves):
        if pairs:
            deeper = inner + "  "
            texts.append("[" + deeper + body.replace(_NEXT, "," + deeper)
                         .replace(_PAIR, inner + "]," + inner + "[" + deeper) + inner + "]")
        else:
            texts.append(body.replace(_NEXT, "," + inner))
    return texts


def write_json(path: str | None, doc) -> None:
    """json_text(doc) to the file at path, opened only once doc is encoded; no path is stdout."""
    text = json_text(doc)
    with _output(path) as fh:
        fh.write(text)


def cut_angles(theta_deg, phi_deg):
    """Signed-theta principal-plane cut: negative theta flips phi by 180 deg.

    Takes arrays in degrees; returns (theta, phi) in radians with theta >= 0.
    """
    theta = np.radians(theta_deg)
    phi = np.radians(phi_deg)
    flipped = np.where(phi <= 0, phi + np.pi, phi - np.pi)
    return np.abs(theta), np.where(theta < 0, flipped, phi)


# json's C decoder recurses on the C stack once per nesting level, so a desired-pattern
# file nested deeper than this is refused before it is decoded: a list 5000 deep killed
# a thread with a 128 KiB stack by SIGSEGV. The depth is counted over the bracket bytes
# of the text with its JSON strings removed (an unterminated one runs to the end).
_DESIRED_DEPTH = 64
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.?)*"?')
_NOT_BRACKETS = bytes(b for b in range(256) if b not in b"[]{}")
# an opening bracket is +1 and a closing one -1, as int8
_NESTING = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")


def _load_desired_pattern(path: str, n: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    steps = _JSON_STRING.sub("", text).encode().translate(_NESTING, _NOT_BRACKETS)
    if np.frombuffer(steps, dtype=np.int8).cumsum().max(initial=0) > _DESIRED_DEPTH:
        raise ScenarioError("desired pattern file is nested too deeply")
    doc = json.loads(text)
    values = doc.get("desired") if isinstance(doc, dict) else None
    pairs = None
    if (isinstance(values, list) and len(values) == n
            and all(isinstance(v, list) and len(v) == 2 for v in values)):
        pairs = _finite_floats(list(itertools.chain.from_iterable(values)))
    if pairs is None or not np.all(np.isfinite(pairs)):
        raise ScenarioError(
            f"desired pattern file must hold {n} finite [re, im] pairs under 'desired'")
    # the (re, im) float pairs are the complex numbers, signed zeros included
    return pairs.view(complex)


def mimo_system(ris: LinearRis, waves, radius: float, thetas) -> MimoSystem:
    """The factored system of ris for the waves, seen at scatter angles thetas at one radius."""
    return mimo_on_angles(ris, [w.direction.theta for w in waves],
                          np.full(len(thetas), radius), thetas)


def reshape_on_grid(ris: LinearRis, waves, radius: float, desired,
                    truncation_tol: float = 1e-8):
    """Least-squares reshape towards desired on the regular scatter grid.

    The matrix model fixes the sinc factor to 1, so the array is solved and
    configured with point cells. Returns (system, solution, configured array).
    """
    ideal = LinearRis(ris.spacing, ris.areas, np.zeros(ris.n), ris.phases, ris.ctx)
    sys = mimo_system(ideal, waves, radius, dft_scatter_grid(ris.n))
    solution = beam_reshape(sys, [w.amplitude for w in waves], desired,
                            truncation_tol=truncation_tol)
    return sys, solution, ideal.with_weights(solution.weights)


def configure_linear(scn: Scenario) -> tuple[LinearRis, ReshapeSolution | None]:
    """Apply the scenario's configuration scheme to its linear geometry."""
    ris = scn.geometry
    if not isinstance(ris, LinearRis):
        raise ScenarioError("configuration requires a linear geometry")
    scheme = scn.scheme
    if scheme is None or (isinstance(scheme, RandomScheme) and scheme.expectation):
        return ris, None
    if isinstance(scheme, RandomScheme):
        return ris.with_phases(random_phase_draw(ris.n, scheme.seed)), None
    if isinstance(scheme, CompensateScheme):
        phases = phase_compensation(math.radians(scheme.theta_i_deg),
                                    math.radians(scheme.theta_s_deg), ris)
        return ris.with_phases(phases), None
    # the scheme types are closed: what is left is a ReshapeScheme
    desired = _load_desired_pattern(scheme.desired_pattern_file, ris.n)
    _, solution, configured = reshape_on_grid(ris, scn.waves, scn.observation.radius,
                                              desired, scheme.truncation_tol)
    return configured, solution


# a non-finite result raises FloatingPointError at the end instead of warning on the way
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_sweep(scn: Scenario, trials: int | None = None):
    """Evaluate the configured model on the observation grid.

    With a trial count, a random-phase scenario gives the Monte Carlo mean
    power over that many phase draws instead of one draw; one that asks for the
    expectation is refused, so that neither model is chosen silently.
    Returns (SweepResult, ReshapeSolution | None). Deterministic given the
    scenario text, including any random seed. Raises FloatingPointError if
    any field magnitude or RCS value is not finite.
    """
    if trials is not None:
        if not isinstance(scn.scheme, RandomScheme):
            raise ScenarioError("trials apply only to random-phase scenarios")
        if scn.scheme.expectation:
            raise ScenarioError("trials apply only to sampled random-phase scenarios, "
                                "not to 'expectation: true'")
        if trials < 1:
            raise ScenarioError("trials must be a positive integer")
    obs_spec = scn.observation
    thetas_deg, phis_deg = obs_spec.theta_deg, obs_spec.phi_deg
    # a Python float product is inf past the float range, where ** raises OverflowError
    amp_sq = sum(w.amplitude * w.amplitude for w in scn.waves)
    if not math.isfinite(amp_sq):
        raise FloatingPointError("the squares of the incident amplitudes "
                                 f"{[w.amplitude for w in scn.waves]} sum past the float range")
    solution = None

    if isinstance(scn.geometry, LinearRis):
        thetas = np.radians(thetas_deg)
        scheme = scn.scheme
        # Monte Carlo and the expectation average over the phase law: only one draw is configured
        if trials is not None:
            magnitude = np.sqrt(monte_carlo_power_grid(scn.geometry, scn.waves, obs_spec.radius,
                                                       thetas, trials, scheme.seed))
        elif isinstance(scheme, RandomScheme) and scheme.expectation:
            magnitude = np.sqrt(random_phase_miso_expected_power(scn.geometry, scn.waves,
                                                                 obs_spec.radius, thetas))
        else:
            ris, solution = configure_linear(scn)
            magnitude = np.abs(_field(ris, scn.waves, obs_spec.radius, thetas))
        phi_col = None
    else:
        magnitude = _field_magnitude(scn.geometry, scn.waves, obs_spec.radius,
                                     *cut_angles(thetas_deg, phis_deg))
        phi_col = phis_deg

    if amp_sq > 0:
        # squared by a product, which is inf past the float range where ** raises
        rcs = 4.0 * np.pi * (obs_spec.radius * obs_spec.radius) * magnitude ** 2 / amp_sq
    else:
        rcs = np.zeros(thetas_deg.size)
    _check_result("the sweep gave non-finite field magnitudes or RCS values", magnitude, rcs)

    return SweepResult(thetas_deg, magnitude, rcs, phi_col), solution


def manifest_for(scn: Scenario) -> dict:
    """Run manifest: library version, scenario hash, filled defaults."""
    return {
        "library_version": __version__,
        "scenario_hash": scn.source_hash,
        "defaults_filled": list(scn.defaults_filled),
    }
