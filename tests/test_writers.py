"""The bulk CSV and JSON writers give the reference writers' bytes.

`reference_writers` holds the value-by-value writers that `write_csv` and
`json_text` replaced. Generated columns and documents with string keys, and
every document a preset or a command writes, must come out byte for byte the
same, and a document the reference refuses must be refused the same way.
"""
import contextlib
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writers
from risem import cli, presets, scenario
from risem.cli import main
from risem.presets import FIGURE_IDS, reproduce
from risem.scenario import json_text, write_csv, write_json

SUBNORMAL = 5e-324
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, SUBNORMAL, -2.5e-310, 1e-5, 1e16,
           123456789012.5, 0.1]


def _stdout(write, columns) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        write(None, columns)
    return out.getvalue()


def _block_edges(k: int) -> list:
    """Row counts around the block of write_csv for k columns."""
    block = max(1, scenario._BLOCK // max(1, k))
    return [block - 1, block, block + 1]


@st.composite
def _columns(draw):
    """Named columns of one row count, drawn from a small pool of values by a seeded rng."""
    k = draw(st.integers(0, 5))
    rows = draw(st.sampled_from([0, 1, 2, 7]) | st.sampled_from(_block_edges(k)))
    pool = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(width=64), min_size=1,
                         max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = {}
    for i in range(k):
        values = rng.choice(np.array(pool), rows)
        kind = draw(st.sampled_from(["array", "list", "range", "ints"]))
        columns[f"c{i}"] = {"array": values, "list": values.tolist(), "range": range(rows),
                            "ints": rng.integers(-2 ** 62, 2 ** 62, rows).tolist()}[kind]
    return columns


@settings(max_examples=60, deadline=None)
@given(_columns())
def test_csv_bytes_equal_the_references(columns):
    assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_csv_rows_at_the_block_edges(k):
    for rows in _block_edges(k):
        values = np.linspace(-1.0, 1.0, rows) ** 3
        columns = {f"c{i}": values * (i + 1) for i in range(k)}
        assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns)


@st.composite
def _bit_columns(draw):
    """1 to 5 columns of raw float64 bit patterns, from a seeded rng: every exponent, so
    subnormals, +-0, +-inf and NaN too, with fractions of every length."""
    k = draw(st.integers(1, 5))
    rows = draw(st.sampled_from([1, 2, 300]) | st.sampled_from(_block_edges(k)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sign = rng.integers(0, 2, (k, rows), dtype=np.uint64) << np.uint64(63)
    # exponent 0 holds the zeros and subnormals, 2047 the infinities and NaNs
    exponent = rng.integers(0, 2048, (k, rows), dtype=np.uint64) << np.uint64(52)
    fraction = (rng.integers(0, 2 ** 52, (k, rows), dtype=np.uint64)
                >> rng.integers(0, 53, (k, rows), dtype=np.uint64))
    bits = sign | exponent | fraction
    return {f"c{i}": bits[i].view(float) for i in range(k)}


@settings(max_examples=60, deadline=None)
@given(_bit_columns())
def test_csv_bytes_of_raw_bit_patterns_equal_the_references(columns):
    assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns)


POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
# each power of ten and one ulp either side, and values whose 13th digit is a 5 or just
# under one, at the top and bottom of the 12-digit range
BOUNDARIES = np.concatenate([
    np.nextafter(POWERS, 0.0), POWERS, np.nextafter(POWERS, math.inf),
    [999999999999.5, 99999999999.95, 9.9999999999995, 9.99999999999949, 1e-5, 1e16]])


@pytest.mark.parametrize("k", [1, 3])
def test_csv_of_the_boundary_values(k):
    for values in (BOUNDARIES, -BOUNDARIES):
        columns = {f"c{i}": np.roll(values, i) for i in range(k)}
        assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns)


def _exact_scaled_fraction(v: float):
    """The fraction of |v| 10^(11 - e), e = floor(log10 |v|), in exact arithmetic."""
    a, ten = abs(Fraction(v)), Fraction(10)
    e = math.floor(math.log10(v if v > 0 else -v))
    e += (ten ** (e + 1) <= a) - (ten ** e > a)
    s = a * ten ** (11 - e)
    return s - math.floor(s)


def test_the_printf_fallback_writes_exactly_the_values_the_rules_reject(monkeypatch):
    # in the range [1e-300, 1e300], a value falls back when the fraction of its scaled
    # value lies within 1/2 +- 2^-10; the scale errs by at most 4.4e-4, so the values
    # here keep 4.5e-4 off the window's edges, and none is within 1e-12 of a power of
    # ten, where log10 may place the point one digit off
    rng = np.random.default_rng(5)
    finite = 10.0 ** rng.uniform(-320.0, 308.0, 4000) * rng.choice([-1.0, 1.0], 4000)
    mantissas = rng.integers(10 ** 11, 10 ** 12, 200)
    halves = (mantissas + 0.5) * 10.0 ** rng.integers(-300, 280, 200).astype(float)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-301, -2e301, 1.7e308,
                123456789012.5, -999999999999.5]
    window, edge = Fraction(2) ** -10, Fraction(45, 10 ** 5)
    values, expected = [], []
    for v in [*finite.tolist(), *halves.tolist(), *specials]:
        in_range = 1e-300 <= abs(v) <= 1e300
        if in_range:
            off = abs(_exact_scaled_fraction(v) - Fraction(1, 2))
            near_power = abs(math.log10(abs(v)) - round(math.log10(abs(v)))) < 1e-12
            if abs(off - window) < edge or near_power:
                continue
        values.append(v)
        if not in_range or off < window:
            expected.append(v)
    assert len(expected) > 200 and len(values) - len(expected) > 3000
    written, printf_rows = [], scenario._printf_rows

    def spy(rejected):
        written.extend(rejected)
        return printf_rows(rejected)

    monkeypatch.setattr(scenario, "_printf_rows", spy)
    columns = {"v": values}
    assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns)
    assert np.array_equal(written, expected, equal_nan=True)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_a_log10_one_digit_off_only_sends_values_to_the_fallback(monkeypatch, shift):
    # a build's log10 may misplace the point near a power of ten: a mantissa that leaves
    # [10^11, 10^12) then takes the fallback, so even a log10 off everywhere keeps the bytes
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    values = np.concatenate([BOUNDARIES, np.random.default_rng(3).uniform(-1e3, 1e3, 500)])
    columns = {"a": values, "b": -values}
    assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns)


def test_csv_of_unequal_columns_stops_at_the_shortest():
    columns = {"a": [1.0, 2.0, 3.0], "b": range(2)}
    assert _stdout(write_csv, columns) == _stdout(reference_writers.write_csv, columns) \
        == "a,b\n1,0\n2,1\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the two bulk shapes, and near misses that must take the general path
FLOAT_LISTS = st.lists(FINITE | st.none() | st.sampled_from([-0.0, SUBNORMAL]), max_size=6)
PAIR_LISTS = st.lists(st.tuples(FINITE, FINITE) | st.lists(FINITE, min_size=2, max_size=2),
                      max_size=4)
SCALARS = (st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=5)
           | FINITE.map(np.float64) | st.sampled_from([-0.0, SUBNORMAL, math.inf]))
KEYS = st.text(max_size=5) | st.just(", ")


def _documents():
    leaves = SCALARS | FLOAT_LISTS | PAIR_LISTS
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4) | st.tuples(children, children)
        | st.dictionaries(KEYS, children, max_size=4)), max_leaves=12)


def _outcome(encode, doc):
    """The text, or the type of the exception the encoder raised."""
    try:
        return encode(doc)
    except (FloatingPointError, TypeError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_json_text_equals_the_references(doc):
    assert _outcome(json_text, doc) == _outcome(reference_writers.json_text, doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"a": {}}, [1.0], [None], [None, None], [[1.0, 2.0]], [(1.0, -0.0)],
    [[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4]], [[1.0, np.float64(2.0)]], [np.float64(1.5)],
    [1.0, True], [1, 2.0],
    {"a": [(1.0, 2.0), (3.0, 4.0)], "b": {"c": [[5e-324, -1e300]]}},
])
def test_json_text_equals_the_reference_on_edge_shapes(doc):
    assert json_text(doc) == reference_writers.json_text(doc)


@pytest.mark.parametrize("doc", [
    [math.nan], {"a": [1.0, math.nan]}, {"a": [[1.0, math.nan]]}, [(math.inf, 0.0)],
    {"a": {"b": [None, -math.inf]}},
])
def test_a_non_finite_document_is_refused_before_the_file_is_opened(tmp_path, doc):
    path = tmp_path / "out.json"
    with pytest.raises(FloatingPointError):
        reference_writers.json_text(doc)
    with pytest.raises(FloatingPointError):
        write_json(str(path), doc)
    assert not path.exists()


def test_a_cycle_is_refused_like_the_reference():
    doc = {"a": []}
    doc["a"].append(doc)
    for encode in (json_text, reference_writers.json_text):
        with pytest.raises(FloatingPointError):
            encode(doc)


def test_a_key_that_is_not_a_string_is_a_type_error():
    # the reference names int, float, bool and None keys; json_text writes string keys only
    for key in (1, 2.5, -0.0, math.nan, True, None, (1, 2), b"a"):
        with pytest.raises(TypeError):
            json_text({"a": [{key: 1.0}]})


def test_a_key_or_value_json_cannot_write_is_a_type_error():
    for doc in ({(1, 2): 1.0}, [np.int64(1)], {"a": np.zeros(2)}):
        for encode in (json_text, reference_writers.json_text):
            with pytest.raises(TypeError):
                encode(doc)


# ---------------------------------------------------------------------------
# The JSON floats: repr's bytes from the digit rule or from repr itself
# ---------------------------------------------------------------------------

def _same_json(doc) -> list:
    """The lines of json_text(doc), which must be the reference's: compared as lists, whose
    first difference pytest reports at once, where a diff of two long texts takes minutes."""
    lines = json_text(doc).splitlines(keepends=True)
    assert lines == reference_writers.json_text(doc).splitlines(keepends=True)
    return lines


def _json_lines(doc) -> list:
    """The lines of json_text(doc), the reference's, without indent or comma."""
    return [line.strip().rstrip(",") for line in _same_json(doc)]


def _check_floats(values: list) -> None:
    """json_text of values as a float list and as a pair list gives the reference's bytes,
    and each float's line is its repr."""
    floats = [v for v in values if v is not None]
    lines = _json_lines(values)
    assert lines[1:-1] == ["null" if v is None else repr(v) for v in values]
    pairs = [[v, -v] for v in floats] + ([(floats[0], 0.0)] if floats else [])
    lines = _json_lines({"pairs": pairs})
    assert [v for v in lines if v not in "{[]}"][1:] == [repr(v) for pair in pairs for v in pair]


@st.composite
def _bit_floats(draw):
    """A list of finite raw float64 bit patterns from a seeded rng: every exponent below
    the infinities', so zeros and subnormals too, with fractions of every length."""
    size = draw(st.sampled_from([1, 2, 300, 2048, 2049]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(0, 2047, size, dtype=np.uint64) << np.uint64(52)
    fraction = (rng.integers(0, 2 ** 52, size, dtype=np.uint64)
                >> rng.integers(0, 53, size, dtype=np.uint64))
    return (sign | exponent | fraction).view(float).tolist()


@settings(max_examples=60, deadline=None)
@given(_bit_floats())
def test_json_floats_of_raw_bit_patterns_are_their_reprs(values):
    _check_floats(values)


def _ties(digits: int) -> list:
    """Doubles whose rounding to `digits` significant digits is an exact tie: each has
    digits + 1 of them, the last a 5."""
    values = [math.ldexp(float(k), -digits) + 1.0 for k in range(1, 200, 2)]
    values += [float(10 ** (digits - 15)) * (2 * k + 1) / 2 for k in (10 ** 14, 4 * 10 ** 14)]
    ties = []
    for v in values:
        s = Fraction(v) * Fraction(10) ** (digits - 1 - math.floor(math.log10(v)))
        if s.denominator == 2:
            ties.append(v)
    assert len(ties) > 50
    return ties


TWO_POWERS = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
JSON_BOUNDARIES = [
    *[math.nextafter(v, d) for v in TWO_POWERS for d in (0.0, math.inf)], *TWO_POWERS,
    *[math.nextafter(v, d) for v in (1e16, 1e-5) for d in (0.0, v, math.inf)],
    *_ties(15), *_ties(16), *_ties(17),
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 54 + 4, 18014398509481988.0,
    SUBNORMAL, sys.float_info.max, -0.0, 0.0, 0.1, 1 / 3]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_json_floats_of_the_boundary_values(sign):
    values = [sign * v for v in JSON_BOUNDARIES]
    _check_floats(values)
    _check_floats([None, *values[::7], None, None, *values[1::7], None])


@pytest.mark.parametrize("doc", [
    [math.nan], [1.0, math.inf], [None, -math.inf], [[1.0, math.nan]], [(0.0, math.inf)],
    {"a": [[1.0, 2.0], [-math.inf, 3.0]]},
])
def test_a_non_finite_float_in_a_bulk_leaf_raises(doc):
    with pytest.raises(FloatingPointError):
        json_text(doc)


# the digit rule's windows, in units of the 17th significant digit, and a margin beyond the
# error of its scale (under 1e-14) within which a value's side of a window's edge is left
# untested
JSON_WINDOW, JSON_MARGIN = Fraction(2) ** -32, Fraction(1, 10 ** 12)


def _left_to_repr(v: float):
    """Whether the digit rule leaves v to repr, in exact arithmetic; None where the rule's
    side is too close to call, or where log10 may place the point one digit off."""
    a = abs(v)
    if not 1e-290 <= a <= 1e290 or math.frexp(a)[0] == 0.5:
        return True
    if abs(math.log10(a) - round(math.log10(a))) < 1e-12:
        return None
    e = math.floor(math.log10(a))
    s = Fraction(a) * Fraction(10) ** (16 - e)
    h = Fraction(2) ** (math.frexp(a)[1] - 54) * Fraction(10) ** (16 - e)
    for step in (100, 10, 1):
        m = round(s / step) * step
        r = abs(s - m)
        gaps = [abs(r - Fraction(step, 2)), abs(r - h)]
        if any(abs(gap - JSON_WINDOW) < JSON_MARGIN for gap in gaps):
            return None
        if min(gaps) < JSON_WINDOW:
            return True
        if r < h:
            return m >= 10 ** 17
    raise AssertionError("17 digits always read back")


def test_the_repr_fallback_writes_exactly_the_values_the_windows_reject(monkeypatch):
    rng = np.random.default_rng(7)
    candidates = [
        *rng.standard_normal(3000).tolist(),
        *(10.0 ** rng.uniform(-300.0, 300.0, 3000) * rng.choice([-1.0, 1.0], 3000)).tolist(),
        # integers past 2^53, many of whose roundings land on a tie or an interval's edge
        *(4.0 * rng.integers(2 ** 52, 2 ** 54, 1500)).tolist(),
        *rng.integers(2 ** 52, 2 ** 53, 500).astype(float).tolist(),
        *_ties(15), *_ties(16), *_ties(17),
        0.0, -0.0, 5e-324, 1e-291, -2e291, 0.5, -1024.0, 1.0, None, None]
    values, expected = [], []
    for v in candidates:
        rejected = True if v is None else _left_to_repr(v)
        if rejected is not None:
            values.append(v)
            if rejected:
                expected.append(math.nan if v is None else v)
    edges = sum(1 for v in values if v is not None and 1e-290 < abs(v) < 1e290
                and math.frexp(v)[0] not in (0.5, -0.5) and v in expected)
    assert edges > 300 and len(values) - len(expected) > 6000
    written, repr_rows = [], scenario._repr_rows

    def spy(rejected):
        written.extend(rejected)
        return repr_rows(rejected)

    monkeypatch.setattr(scenario, "_repr_rows", spy)
    _same_json(values)
    assert np.array_equal(written, expected, equal_nan=True)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_a_log10_one_digit_off_only_sends_json_floats_to_repr(monkeypatch, shift):
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    values = [*JSON_BOUNDARIES, *np.random.default_rng(3).uniform(-1e3, 1e3, 500).tolist()]
    _same_json(values)
    _same_json([[v, -v] for v in values])

# ---------------------------------------------------------------------------
# Every document a preset or a command writes
# ---------------------------------------------------------------------------

LINEAR = """\
geometry: {kind: linear, n: 16, spacing: 0.5, a: 0.1, b: 0.1}
incident:
  - {theta_deg: 30.0, amplitude: 1.0}
  - {theta_deg: -10.0, amplitude: 0.5}
observation: {radius: 100.0, grid: {start_deg: -90.0, stop_deg: 90.0, count: 361}}
"""
SCENARIOS = {
    "compensate": LINEAR + "configure: {scheme: compensate, theta_i_deg: 30, theta_s_deg: -50}\n",
    "random": LINEAR + "configure: {scheme: random, seed: 3}\n",
    "reshape": LINEAR + "configure: {scheme: reshape, desired_pattern_file: desired.json}\n",
    "planar": """\
geometry:
  kind: planar
  cells:
    - {position: [0, 0, 0], a: 0.4, b: 0.4, phase: 0.3}
    - {position: [0.5, 0.1, 0], a: 0.4, b: 0.3}
    - {position: [-0.5, 0.2, 0.01], a: 0.2, b: 0.4, area: 0.05}
incident:
  - {theta_deg: 20.0, phi_deg: 45.0}
observation: {grid: {start_deg: -90.0, stop_deg: 90.0, count: 181, phi_deg: 30}}
""",
    # no incident wave: every field is zero, so the dB columns are -inf (None in JSON)
    "patch": "geometry: {kind: patch, a: 2.0, b: 1.0}\n",
}
COMMANDS = [
    ("sweep-csv", "compensate", ["sweep", "--format", "csv"]),
    ("sweep-json", "compensate", ["sweep", "--format", "json"]),
    ("sweep-mc", "random", ["sweep", "--format", "csv", "--trials", "4"]),
    ("reshape-csv", "reshape", ["sweep", "--format", "csv"]),
    ("reshape-json", "reshape", ["sweep", "--format", "json"]),
    ("planar-csv", "planar", ["sweep", "--format", "csv"]),
    ("planar-json", "planar", ["sweep", "--format", "json"]),
    ("patch-csv", "patch", ["sweep", "--format", "csv"]),
    ("patch-json", "patch", ["sweep", "--format", "json"]),
    ("mimo", "reshape", ["mimo"]),
    ("mimo-random", "random", ["mimo"]),
    ("configure-csv", "reshape", ["configure", "--format", "csv"]),
    ("configure-json", "reshape", ["configure", "--format", "json"]),
    ("configure-random-csv", "random", ["configure", "--format", "csv"]),
    ("configure-compensate-json", "compensate", ["configure", "--format", "json"]),
]


def _use_reference_writers(monkeypatch):
    """Point every module that writes output at the reference writers."""
    for module in (scenario, cli, presets):
        if hasattr(module, "write_csv"):
            monkeypatch.setattr(module, "write_csv", reference_writers.write_csv)
        if hasattr(module, "json_text"):
            monkeypatch.setattr(module, "json_text", reference_writers.json_text)


def _files(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _both_ways(tmp_path, monkeypatch, run) -> tuple:
    """The files run(out_dir) writes with the new writers, then with the reference writers."""
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    run(new)
    with monkeypatch.context() as patched:
        _use_reference_writers(patched)
        run(ref)
    return _files(new), _files(ref)


@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_preset_files_are_byte_identical(tmp_path, monkeypatch, figure):
    new, ref = _both_ways(tmp_path, monkeypatch, lambda out: reproduce(figure, str(out)))
    assert len(new) > 1 and new == ref


@pytest.mark.parametrize("name,scenario_name,argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_outputs_are_byte_identical(tmp_path, monkeypatch, name, scenario_name, argv):
    path = tmp_path / "s.yaml"
    path.write_text(SCENARIOS[scenario_name], encoding="utf-8")
    grid = np.arcsin(-1.0 + 2.0 * np.arange(16) / 16)
    desired = [[math.cos(3 * t), 0.25 * math.sin(t)] for t in grid]
    (tmp_path / "desired.json").write_text(json.dumps({"desired": desired}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def run(out):
        assert main([argv[0], str(path), *argv[1:], "--out", str(out / name)]) == 0

    new, ref = _both_ways(tmp_path, monkeypatch, run)
    assert new == ref and new[name]
