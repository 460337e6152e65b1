"""The CLI contract on generated scenarios: every run ends in exit 0, 2 or 3.

Exit 0 means every number written is finite (a CSV dB column may hold -inf,
the dB of a zero field) and every JSON document is strict. A failure prints at
most one stderr line and never a traceback. The scenarios are mostly valid,
with a few values drawn from a pool of edge cases, and a few keys dropped or
misspelt; an overflowing radius or amplitude is among the typical values, so
all three exit codes are reached.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from risem.cli import main

# numbers at the edges of float64, non-finite ones, values of the wrong type, and
# empty tagged scalars (the space ends the tag before a flow indicator)
POOL = ["0", "-1", "-2.5", "1.0e+308", "1.0e-320", ".nan", ".inf", "-.inf", "abc", "'1.5'", "true",
        "[1, 2]", "!!float x", "!!int x", "!!str 1", "~", "!!float ", "!!bool ", "!!timestamp "]

COMMANDS = [["sweep", "--format", "csv"], ["sweep", "--format", "json"], ["mimo"],
            ["configure"], ["sweep", "--trials", "3"]]


@st.composite
def _value(draw, *typical):
    """One of the typical YAML values, or about one in forty times a value from POOL."""
    return draw(st.sampled_from(POOL if draw(st.integers(0, 39)) == 0 else typical))


@st.composite
def _mapping(draw, items, optional=()):
    """Flow mapping of (key, strategy) items; a key may be dropped or misspelt, rarely.

    An optional key is dropped one in four times.
    """
    pairs = []
    for key, values in items:
        fate = draw(st.integers(0, 79))
        if fate == 0 or (key in optional and fate < 20):
            continue
        pairs.append((key + "x" if fate == 1 else key, draw(values)))
    return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"


def _flow_list(item, min_size, max_size):
    return st.lists(item, min_size=min_size, max_size=max_size).map(
        lambda v: "[" + ", ".join(v) + "]")


@st.composite
def _geometry(draw, kind, n):
    edges = [("a", _value("1", "0.5", "0.1", "2.0")), ("b", _value("1", "0.5", "0.1", "3"))]
    area = [("area", _value("1.5", "0.01", "4"))]
    if kind == "planar":
        cell = _mapping([("position", _value("[0, 0, 0]", "[0.5, 0.1, 0.0]", "[1, -0.4, 0.02]")),
                         *edges, *area, ("phase", _value("0", "1.0", "3.5"))],
                        optional={"area", "phase"})
        return f"{{kind: planar, cells: {draw(_flow_list(cell, 1, 4))}}}"
    if kind == "patch":
        return "{kind: patch, " + draw(_mapping([*edges, *area], optional={"area"}))[1:]
    return "{kind: linear, " + draw(_mapping(
        [("n", _value(str(n))), ("spacing", _value("0.5", "0.7", "0.25")), *edges, *area],
        optional={"area"}))[1:]


@st.composite
def _observation(draw):
    point = _mapping([("theta_deg", _value("0", "-30", "45", "90")),
                      ("phi_deg", _value("0", "90", "-135"))], optional={"phi_deg"})
    grid = _mapping([("start_deg", _value("-90", "-60", "0")),
                     ("stop_deg", _value("90", "60", "45")), ("count", _value("1", "9", "64")),
                     ("phi_deg", _value("0", "45"))], optional={"phi_deg"})
    angles = ("points", _flow_list(point, 1, 4)) if draw(st.booleans()) else ("grid", grid)
    # e^{-j 2 pi r} / r overflows at r = 1e-320 (YAML reads 1e-320 as a string)
    return draw(_mapping([("radius", _value("100", "1", "10", "1.0e-320")), angles],
                         optional={"radius"}))


@st.composite
def _configure(draw, desired_path):
    scheme = draw(st.sampled_from(["random", "compensate", "reshape"]))
    keys = {"random": [("seed", _value("0", "7")), ("expectation", _value("false", "true"))],
            "compensate": [("theta_i_deg", _value("30", "0")),
                           ("theta_s_deg", _value("-50", "20"))],
            "reshape": [("desired_pattern_file", st.just(json.dumps(desired_path))),
                        ("truncation_tol", _value("1e-8", "0.1"))]}[scheme]
    return f"{{scheme: {scheme}, " + draw(_mapping(
        keys, optional={"seed", "expectation", "truncation_tol"}))[1:]


@st.composite
def _cases(draw, desired_path):
    """(scenario text, desired pattern JSON) for one generated scenario."""
    # half are linear, since only a linear array reaches mimo, configure and --trials
    kind = draw(st.sampled_from(["linear", "patch", "linear", "planar"]))
    n = draw(st.sampled_from([1, 2, 8, 16, 64]))
    wave = _mapping([("theta_deg", _value("0", "30", "70", "90")),
                     ("phi_deg", _value("0", "45", "-135", "180")),
                     ("amplitude", _value("1", "0.5", "0", "1.0e+300"))],
                    optional={"phi_deg", "amplitude"})
    sections = {"geometry": _geometry(kind, n), "incident": _flow_list(wave, 0, 3),
                "observation": _observation(), "configure": _configure(desired_path),
                "output": _mapping([("format", _value("csv", "json"))])}
    # in twentieths: geometry and observation are almost always present, and a scheme
    # mostly on linear arrays
    odds = {"geometry": 19, "incident": 15, "observation": 18,
            "configure": 16 if kind == "linear" else 2, "output": 10}
    text = ""
    for name, section in sections.items():
        if draw(st.integers(0, 19)) < odds[name]:
            text += f"{name}: {draw(section)}\n"
    pair = _value("[1.0, 0.0]", "[0.5, -0.25]", "[0, 0]")
    count = n + draw(st.sampled_from([0] * 9 + [1]))
    desired = "{\"desired\": " + draw(_flow_list(pair, count, count)) + "}"
    return text, desired


def _check_written(text: str) -> None:
    """Every number in the output is finite; -inf only in a CSV dB column."""
    if text.startswith("{"):
        def refuse(constant):
            raise AssertionError(f"non-strict JSON constant {constant}")
        stack = [json.loads(text, parse_constant=refuse)]
        while stack:
            value = stack.pop()
            if isinstance(value, dict):
                stack.extend(value.values())
            elif isinstance(value, list):
                stack.extend(value)
            elif isinstance(value, float):
                assert math.isfinite(value)
        return
    header, *rows = text.splitlines()
    names = header.split(",")
    for row in rows:
        for name, cell in zip(names, row.split(","), strict=True):
            value = float(cell)
            assert math.isfinite(value) or (name.endswith("_db") and value == -math.inf), \
                (name, cell)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_command_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        desired_path = str(Path(tmp) / "desired.json")
        text, desired = data.draw(_cases(desired_path), label="scenario, desired")
        Path(tmp, "s.yaml").write_text(text, encoding="utf-8")
        Path(desired_path).write_text(desired, encoding="utf-8")
        out = Path(tmp) / "out"
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command[0], str(Path(tmp) / "s.yaml"), *command[1:],
                             "--out", str(out)])
            assert code in (0, 2, 3), command
            err = stderr.getvalue()
            assert err.count("\n") <= 1 and "Traceback" not in err, (command, err)
            assert stdout.getvalue() == "", command
            if code == 0:
                _check_written(out.read_text(encoding="utf-8"))
            out.unlink(missing_ok=True)
