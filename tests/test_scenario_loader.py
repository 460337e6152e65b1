"""The scenario YAML loader: libyaml's event pass, and the pure-Python fallback.

The libyaml path builds its document from libyaml's events in one iterative
pass, which must build what yaml.CSafeLoader builds. The pass refuses a text
nested _MAX_DEPTH collections deep as nesting too deep, and hands every other
text it does not finish to the pure-Python loader. These tests check which
loader runs at the pass's limit, that deep texts exit
2 in a child process (a crash would end it by a signal), also from a thread
with a small stack (as does a deep desired-pattern file), what the event pass
hands over, that it reads plain decimals and repeated plain words as resolve
and its constructor read them, and that both loaders give the same scenario.
Planar cells are read as columns, which must keep the bits and the refusals
of the cell-by-cell reader. A planar cell table of one-line rows is read by
the row reader, which must give what yaml.CSafeLoader gives and leave every
other text to the event pass.
"""
import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import risem
from risem import scenario
from risem.cli import main
from risem.scenario import ScenarioError, parse_scenario

LIMIT = scenario._MAX_DEPTH
DEEP = 40_000

pytestmark = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def _canonical(value):
    """value for an exact comparison: dataclasses and dicts as tuples, arrays as their bytes.

    A float is its repr, so that -0.0 is not 0.0, and any other scalar is paired
    with its type, so that 1 is not True.
    """
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                *(_canonical(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return "dict", tuple((_canonical(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (float, complex)):
        return repr(value)
    return type(value).__name__, value


def _python_loader_only():
    """A context in which parse_scenario reads every text with the pure-Python loader."""
    return mock.patch.object(yaml, "__with_libyaml__", False)


def _outcome(text):
    """The canonical Scenario of text, or the ScenarioError message it raises."""
    try:
        return _canonical(parse_scenario(text))
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


@pytest.fixture
def loaders(monkeypatch):
    """The Loader of every yaml.load call, in order."""
    seen = []
    load = yaml.load

    def spy(stream, Loader):
        seen.append(Loader)
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return seen


# ---------------------------------------------------------------------------
# The event pass's depth limit
# ---------------------------------------------------------------------------

# each text is d collections deep
NESTED = {
    "flow-sequence": lambda d: "[" * d + "]" * d + "\n",
    "flow-mapping": lambda d: "{a: " * d + "x" + "}" * d + "\n",
    "block-sequence": lambda d: "".join(" " * i + "-\n" for i in range(d)) + " " * d + "x\n",
    "block-mapping": lambda d: "".join(" " * i + "k:\n" for i in range(d)) + " " * d + "x\n",
    "compact-sequence": lambda d: "- " * d + "x\n",
}


def _collections_deep(value) -> int:
    """How many collections deep value nests, along its first items."""
    depth = 0
    while isinstance(value, (list, dict)):
        value, depth = (next(iter(value.values())) if isinstance(value, dict)
                        else value[0] if value else None), depth + 1
    return depth


@pytest.mark.parametrize("shape", NESTED)
def test_the_event_pass_builds_a_text_just_under_its_limit(loaders, shape):
    assert _collections_deep(scenario._load_yaml(NESTED[shape](LIMIT - 1))) == LIMIT - 1
    assert loaders == [scenario._EventLoader]


@pytest.mark.parametrize("shape", NESTED)
def test_a_text_at_the_limit_is_refused_by_the_event_pass(loaders, shape):
    with pytest.raises(ScenarioError, match="^scenario parse error: nesting too deep$"):
        parse_scenario(NESTED[shape](LIMIT))
    assert loaders == [scenario._EventLoader]


def test_the_limit_comes_before_an_error_only_the_python_loader_finds(loaders):
    # libyaml reads a tab between flow items, the Python loader refuses it; the pass
    # meets the depth first
    text = "x: {a: 1,\tc: 2}\ny: " + NESTED["flow-sequence"](LIMIT)
    with pytest.raises(ScenarioError, match="^scenario parse error: nesting too deep$"):
        parse_scenario(text)
    assert loaders == [scenario._EventLoader]
    with _python_loader_only(), pytest.raises(ScenarioError, match="cannot start any token$"):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# Deep texts, each in a child process: a crash ends it by a signal, not pytest
# ---------------------------------------------------------------------------

def _quoted_closers(depth):
    # closers inside a quoted scalar, then the real nesting
    return ("a: '\n" + "  ]]]]]]]]\n" * 5000 + "  '\nb:\n"
            + "  [[[[[[[[\n" * (depth // 8) + "  ]]]]]]]]\n" * (depth // 8))


DEEP_TEXTS = {
    "quoted-closers": _quoted_closers(DEEP),
    "compact-sequence": "- " * DEEP + "x",
    "flow-mapping": "a: " + "{a: " * DEEP + "x" + "}" * DEEP + "\n",
    # two lines: the second nests inside the last entry of the first
    "block-sequence": "- " * (DEEP // 2) + "\n" + " " * (DEEP - 1) + "- " * (DEEP // 2) + "x\n",
    "compact-mapping": "? " * DEEP + "x\n",
}


def _child_env() -> dict:
    """The environment of a child process that imports this risem."""
    src = str(Path(risem.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("name", DEEP_TEXTS)
def test_deep_text_exits_2_in_a_child_process(tmp_path, name):
    path = tmp_path / "deep.yaml"
    path.write_text(DEEP_TEXTS[name], encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "risem.cli", "sweep", str(path)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert run.returncode == 2, f"exit {run.returncode} (negative: killed by a signal)"
    assert run.stdout == ""
    assert run.stderr == "error: scenario parse error: nesting too deep\n"


# every deep text, two past the event pass's limit on short lines, and a deep value for
# a message (as in test_deep_value_in_a_message_exits_2); on a thread with a 128 KiB
# stack (musl's default) the value's repr, or a C recursion over the text, overflows it
SMALL_STACK_TEXTS = {
    **DEEP_TEXTS,
    "deep-value": "geometry: {kind: patch, a: 1.0, b: " + "[" * 1500 + "]" * 1500 + "}\n",
    "c-loaded-sequence": "geometry:\n" + " [\n" * 4990 + " ]\n" * 4990,
    "c-loaded-mapping": "geometry:\n" + " {a:\n" * 9000 + " 1\n" + " }\n" * 9000,
}

SMALL_STACK_CHILD = """
import json, resource, sys, threading
from risem.scenario import ScenarioError, parse_scenario

texts, outcomes = json.load(sys.stdin), {}

def parse(key, text):
    try:
        parse_scenario(text)
        outcomes[key] = "parsed"
    except ScenarioError as exc:
        outcomes[key] = str(exc)

threading.stack_size(128 * 1024)
for name, text in texts.items():
    thread = threading.Thread(target=parse, args=("thread " + name, text))
    thread.start()
    thread.join()
# the initial thread's stack grows up to this limit
resource.setrlimit(resource.RLIMIT_STACK, (512 * 1024, resource.getrlimit(resource.RLIMIT_STACK)[1]))
for name, text in texts.items():
    parse("main " + name, text)
print(json.dumps(outcomes))
"""


def test_deep_texts_give_one_line_errors_on_a_small_stack():
    run = subprocess.run([sys.executable, "-c", SMALL_STACK_CHILD],
                         input=json.dumps(SMALL_STACK_TEXTS), capture_output=True, text=True,
                         env=_child_env(), timeout=300)
    assert run.returncode == 0, f"exit {run.returncode} (negative: killed by a signal)"
    outcomes = json.loads(run.stdout)
    assert outcomes.keys() == {f"{where} {name}" for where in ("thread", "main")
                               for name in SMALL_STACK_TEXTS}
    for key, message in outcomes.items():
        assert message != "parsed" and "\n" not in message, key


SMALL_STACK_CONFIGURE_CHILD = """
import contextlib, io, json, sys, threading
from risem.cli import main

outcome = {}

def configure():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcome["exit"] = main(["configure", sys.argv[1]])
    outcome["output"] = out.getvalue() + err.getvalue()

threading.stack_size(128 * 1024)
thread = threading.Thread(target=configure)
thread.start()
thread.join()
print(json.dumps(outcome))
"""


def test_a_deep_desired_file_gives_a_one_line_error_on_a_small_stack(tmp_path):
    # json's C decoder recurses once per level of the desired-pattern file
    desired = tmp_path / "desired.json"
    desired.write_text('{"desired": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    path = tmp_path / "reshape.yaml"
    path.write_text("geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
                    "incident: [{theta_deg: 30.0}]\n"
                    "configure: {scheme: reshape, desired_pattern_file: "
                    f"{json.dumps(str(desired))}}}\n", encoding="utf-8")
    run = subprocess.run([sys.executable, "-c", SMALL_STACK_CONFIGURE_CHILD, str(path)],
                         capture_output=True, text=True, env=_child_env(), timeout=120)
    assert run.returncode == 0, f"exit {run.returncode} (negative: killed by a signal)"
    assert json.loads(run.stdout) == {
        "exit": 2, "output": "error: desired pattern file is nested too deeply\n"}


def test_a_thread_parse_gives_what_a_direct_parse_gives(monkeypatch):
    direct = _canonical(parse_scenario(POINTS_SCENARIO))
    threads = []
    monkeypatch.setattr(scenario, "_has_measured_stack", lambda: False)
    start = scenario.threading.Thread.start

    def counted(self):
        threads.append(self)
        start(self)
    monkeypatch.setattr(scenario.threading.Thread, "start", counted)
    assert _canonical(parse_scenario(POINTS_SCENARIO)) == direct
    with pytest.raises(ScenarioError, match="^scenario is empty$"):
        parse_scenario("")
    assert len(threads) == 2 and not any(t.is_alive() for t in threads)
    # the process-wide size for new threads is left as it was
    assert scenario.threading.stack_size() == 0


@pytest.mark.parametrize("soft,measured", [(8 * 2 ** 20, True), (2 ** 20, False)])
def test_the_initial_thread_parses_directly_only_with_an_8_mib_stack(monkeypatch, soft, measured):
    import resource
    monkeypatch.setattr(resource, "getrlimit", lambda which: (soft, resource.RLIM_INFINITY))
    assert scenario._has_measured_stack() is measured


@pytest.mark.parametrize("text", [
    # 1500 levels, under the pass's limit: the pass builds it and the message's repr recurses
    "geometry: {kind: patch, a: 1.0, b: " + "[" * 1500 + "]" * 1500 + "}\n",
    # aliases nest 1500 levels while the composer sees two
    "geometry: {kind: patch, b: 1.0, a: ["
    + ", ".join(["&x0 [1]"] + [f"&x{i} [*x{i - 1}]" for i in range(1, 1500)]) + "]}\n",
], ids=["c-loaded", "aliases"])
def test_deep_value_in_a_message_exits_2(tmp_path, capsys, text):
    path = tmp_path / "deep.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", str(path)]) == 2
    assert capsys.readouterr().err == "error: scenario parse error: nesting too deep\n"


# ---------------------------------------------------------------------------
# Which loader runs
# ---------------------------------------------------------------------------

POINTS_SCENARIO = ("geometry: {kind: patch, a: 1.5, b: 2.0}\n"
                   "incident: [{theta_deg: 20.0, phi_deg: 30.0}]\n"
                   "observation:\n  radius: 50.0\n  points:\n"
                   + "".join(f"    - {{theta_deg: {t}.0, phi_deg: 15.0}}\n"
                             for t in range(-80, 81, 5)))


def test_a_one_line_json_scenario_is_read_by_the_event_pass(loaders):
    # JSON is YAML: its one line nests no deeper than the indented text
    doc = yaml.safe_load(_planar_text(_cell_rows()))
    loaders.clear()
    one_line = parse_scenario(json.dumps(doc))
    assert loaders == [scenario._EventLoader]
    indented = parse_scenario(json.dumps(doc, indent=2))
    assert one_line.geometry.phases.size == 1024
    assert (_canonical(dataclasses.replace(one_line, source_hash=""))
            == _canonical(dataclasses.replace(indented, source_hash="")))


def test_python_loader_without_libyaml(loaders, monkeypatch):
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    parse_scenario(POINTS_SCENARIO)
    assert loaders == [scenario._LocatingLoader]


def test_libyaml_refusal_is_read_again_by_the_python_loader(loaders):
    # libyaml refuses ':' right before a flow collection; the Python loader reads it
    text = "{geometry: {kind: patch, a: 1.0, b: 2.0}, incident:[{theta_deg: 10.0}]}"
    scn = parse_scenario(text)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]
    assert [w.direction.theta for w in scn.waves] == [pytest.approx(np.radians(10.0))]


@pytest.mark.parametrize("text,message", [
    # libyaml puts this error at column 13 and leaves out the 'q'
    ('geometry: "a\\q"\n', "scenario parse error at line 1, column 14: "
                           "found unknown escape character 'q'"),
    ("geometry: [1, 2\n", "scenario parse error at line 2, column 1: "
                          "expected ',' or ']', but got '<stream end>'"),
    ("geometry: {kind: patch}\x07\n", "scenario parse error: unacceptable character #x0007: "
                                      "special characters are not allowed\n"
                                      '  in "<unicode string>", position 23'),
])
def test_parse_errors_are_the_python_loaders(text, message):
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value) == message


TAG_ERRORS = [
    ("geometry: {kind: patch, a: !!float x, b: 1}\n",
     "scenario parse error at line 1, column 28: could not convert string to float: 'x'"),
    ("geometry: {kind: linear, n: !!int x, spacing: 0.5, a: 0.1, b: 0.1}\n",
     "scenario parse error at line 1, column 29: invalid literal for int() with base 10: 'x'"),
    ("geometry: {kind: patch, a: 1, b: 1}\noutput: {path: !!timestamp 2020-13-45}\n",
     "scenario parse error at line 2, column 16: month must be in 1..12"),
    # an alias cycle, and an unknown tag the loader never reached
    ("a: &a [*a, [!foo y]]\nb: !!int x\n",
     "scenario parse error at line 2, column 4: invalid literal for int() with base 10: 'x'"),
    # the scalar the construction meets first is located, with its own reason: the
    # top mapping's scalars come before the contents of its collections
    ('a: [!!float ""]\nb: !!int x\n',
     "scenario parse error at line 2, column 4: invalid literal for int() with base 10: 'x'"),
    ("geometry: {kind: patch, a: 1, b: 1}\nwave: {gamma: [!!float , 1]}\n"
     "output: {path: !!int x}\n",
     "scenario parse error at line 3, column 16: invalid literal for int() with base 10: 'x'"),
    # on an empty scalar the constructors raise IndexError (!!float, !!int), KeyError
    # (!!bool) and AttributeError (!!timestamp), not ValueError
    *[(f"geometry: {{kind: patch, a: 1, b: 1}}\noutput:\n  path: {tag}\n",
       f"scenario parse error at line 3, column 9: cannot read '' as {tag}")
      for tag in ("!!float", "!!int", "!!bool", "!!timestamp")],
    ("!!float : 1\n", "scenario parse error at line 1, column 1: cannot read '' as !!float"),
    ("geometry: {kind: patch, a: 1, b: !!bool x}\n",
     "scenario parse error at line 1, column 34: cannot read 'x' as !!bool"),
    ("geometry: {kind: patch, a: !!int +, b: 1}\n",
     "scenario parse error at line 1, column 28: cannot read '+' as !!int"),
]


@pytest.mark.parametrize("text,message", TAG_ERRORS)
@pytest.mark.parametrize("python_only", [False, True])
def test_a_tag_its_constructor_cannot_read_is_located(text, message, python_only):
    with _python_loader_only() if python_only else contextlib.nullcontext(), \
            pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("text,message", TAG_ERRORS)
def test_a_located_tag_error_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "s.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# libyaml accepts texts that the Python loader refuses: a tab between tokens, a '?'
# inside a plain scalar in a flow collection, and a bare '!' tag before a flow indicator.
# A text with a tab or a '?' now parses; the event pass hands a tagged text to the
# Python loader.
@pytest.mark.parametrize("text,expected", [
    ("a: [1,\t2]\n", {"a": [1, 2]}),
    ("a:\t1\n", {"a": 1}),
    ("{a: pat?ch}\n", {"a": "pat?ch"}),
    ("{a: !, b: 0}\n", {"a": "", "b": 0}),
])
def test_libyaml_leniency(text, expected):
    assert yaml.load(text, Loader=yaml.CSafeLoader) == expected
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)


def test_a_bare_tag_on_an_empty_value_differs():
    # both accept it, but libyaml reads an empty string where the Python loader reads null;
    # the event pass hands the tagged text to the Python loader
    assert yaml.load("a: !\n", Loader=yaml.CSafeLoader) == {"a": ""}
    assert yaml.safe_load("a: !\n") == {"a": None}
    text = "geometry: {kind: patch, a: 1.0, b: 2.0}\noutput: !\n"
    assert parse_scenario(text).output == scenario.OutputSpec()


@pytest.mark.parametrize("text,handed_over", [
    ("geometry: {kind: patch, a: 1.0, b: 2.0}\noutput: !\n", True),
    ("geometry: {kind: patch, a: !!float 1, b: 2.0}\n", True),
    ("%TAG !e! tag:yaml.org,2002:\n---\ngeometry: {kind: patch, a: !e!float 1, b: 2.0}\n", True),
    ("# a '!' in a comment is no tag!\ngeometry: {kind: patch, a: 1.0, b: 2.0}\n", False),
    ("geometry: {kind: patch, a: 1.0, b: 2.0}\noutput: {path: 'wow!.csv'}\n", False),
], ids=["bare-tag", "tag", "directive-tag", "comment", "quoted"])
def test_only_a_tagged_text_is_handed_to_the_python_loader(loaders, text, handed_over):
    assert parse_scenario(text).geometry.a.tolist() == [1.0]
    assert loaders == [scenario._EventLoader, *[scenario._LocatingLoader] * handed_over]


def test_a_tab_between_flow_items_parses():
    text = "geometry: {kind: patch, a: 1.0,\tb: 2.0}\n"
    assert parse_scenario(text).geometry.a.tolist() == [1.0]
    with _python_loader_only(), pytest.raises(ScenarioError, match="'\\\\t'"):
        parse_scenario(text)


def test_a_merge_key_with_a_tab_is_refused(loaders):
    # libyaml builds it, but the merge key hands it to the Python loader, which refuses the tab
    text = "b: &b {c: 1}\nx: {<<: *b,\tc: 2}\n"
    with pytest.raises(ScenarioError, match="'\\\\t'"):
        parse_scenario(text)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]
    assert yaml.load(text, Loader=yaml.CSafeLoader) == {"b": {"c": 1}, "x": {"c": 2}}


# ---------------------------------------------------------------------------
# Loader equivalence on generated scenario texts
# ---------------------------------------------------------------------------

NUMBERS = ["0", "1", "-1", "0.5", "-0.0", "7", "30.0", "-90", "361", "1e308", "1.0e+309",
           "-1.0e+400", "1.0e-320", "4.9e-324", ".inf", "-.Inf", ".nan", "0x1F", "0o17",
           "1_000.5", "1:30", "123456789012345678901234567890", "9" * 320, "1e3", "+12.5",
           "'1.5'", '"2"', "true", "~", "1.5 # a comment ]]",
           # next to the decimal notation that the event pass reads without resolve
           "+1", "-0", "007", "00.5", "-00.5", "1_000", "1e5", "1.5e+3", "-2.5E-3", ".5",
           "-.5", "1.", "1:30.5", "-1:30.5",
           # a '!' in a comment, and every tag form: libyaml emits a tag for each
           "2.5 # note!", "!!float 1.5", "!!int 7", "!!str 30.0", "! 12", "!foo 1", "!!float",
           "!", "!<tag:yaml.org,2002:float> 2.5", "!e!float 0.5", "!e!int", "!!seq [1, 2]",
           "!!map {a: 1}"]
STRINGS = ["csv", "json", "patch", "linear", "planar", "random", "compensate", "reshape",
           "'out[1]{2}.csv'", '"a]]]b}}"', "'it''s [x'", '"[{"', "'}]'", "'déjà vu'",
           '"x: [y]"', "plain]text", "'#not a comment'", "'wow!'", '"!x"', "'!'", "a!b",
           "!!str csv", "! json"]
# lines a text may start with: a comment with a '!', and a directive for the '!e!' handle
HEADS = ["", "# note!\n", "%TAG !e! tag:yaml.org,2002:\n---\n"]
# characters an edit inserts: no tab or '?' (see test_libyaml_leniency)
EDITS = "[]{},:'\"-#&*| \n%@`~^=<>é;.!"


def _numbers():
    return st.one_of(st.sampled_from(NUMBERS), st.floats(allow_nan=False).map(repr),
                     st.integers(-10 ** 30, 10 ** 30).map(str)).map(lambda t: ("scalar", t))


def _words(*words):
    return st.sampled_from(words + tuple(STRINGS)).map(lambda t: ("scalar", t))


@st.composite
def _section(draw, spec, head=()):
    """A mapping node of some keys of spec, each key perhaps misspelt, after the pairs head."""
    pairs = list(head)
    for key, values in spec.items():
        if draw(st.integers(0, 3)):
            key = draw(st.sampled_from([key] * 6 + [key + "x", key[:-1], key.upper(),
                                                    f"'{key}'", f'"{key}[0]"']))
            pairs.append((key, draw(values)))
            # a key written twice: the later value is read
            if not draw(st.integers(0, 7)):
                pairs.append((key, draw(values)))
    return "map", pairs


def _list(node, min_size=0):
    return st.lists(node, min_size=min_size, max_size=4).map(lambda v: ("seq", v))


@st.composite
def _scenario_tree(draw):
    top = []
    if draw(st.booleans()):
        top.append(("wave", draw(_section({"wavelength": _numbers(),
                                           "gamma": _numbers() | _list(_numbers(), 2)}))))
    kind = draw(st.sampled_from(["patch", "linear", "planar"]))
    if kind == "planar":
        cell = _section({"position": _list(_numbers(), 2), "a": _numbers(), "b": _numbers(),
                         "area": _numbers(), "phase": _numbers()})
        geometry = ("map", [("kind", ("scalar", kind)), ("cells", draw(_list(cell, 1)))])
    else:
        geometry = draw(_section({key: _numbers() for key in ("a", "b", "area", "n", "spacing")},
                                 [("kind", ("scalar", kind))]))
    top.append(("geometry", geometry))
    if draw(st.booleans()):
        wave = _section({"theta_deg": _numbers(), "phi_deg": _numbers(), "amplitude": _numbers()})
        top.append(("incident", draw(_list(wave))))
    if draw(st.booleans()):
        point = _section({"theta_deg": _numbers(), "phi_deg": _numbers()})
        grid = _section({key: _numbers() for key in ("start_deg", "stop_deg", "count", "phi_deg")})
        top.append(("observation", draw(_section({"radius": _numbers(), "points": _list(point, 1)})
                                        | _section({"radius": _numbers(), "grid": grid}))))
    if draw(st.booleans()):
        scheme = draw(st.sampled_from(["random", "compensate", "reshape"]))
        keys = {"random": {"seed": _numbers(), "expectation": _words("true", "false")},
                "compensate": {"theta_i_deg": _numbers(), "theta_s_deg": _numbers()},
                "reshape": {"desired_pattern_file": _words("d.json", "'d[1].json'"),
                            "truncation_tol": _numbers()}}[scheme]
        top.append(("configure", draw(_section(keys, [("scheme", ("scalar", scheme))]))))
    if draw(st.booleans()):
        top.append(("output", draw(_section({"format": _words(),
                                             "path": _words("out.csv", '"o{2}.csv"')}))))
    return "map", top


@st.composite
def _render(draw, node, indent=0, flow=False):
    """YAML text of node, each collection in a drawn style; block text ends in a newline."""
    kind, body = node
    if kind == "scalar":
        return body
    if flow or not body or draw(st.integers(0, 3)) == 0:
        if kind == "seq":
            return "[" + ", ".join(draw(_render(v, flow=True)) for v in body) + "]"
        return "{" + ", ".join(f"{k}: {draw(_render(v, flow=True))}" for k, v in body) + "}"
    lines = []
    for item in body:
        head, child = ("-", item) if kind == "seq" else (f"{item[0]}:", item[1])
        text = draw(_render(child, indent + 2))
        lines.append(" " * indent + head + ("\n" + text if text.endswith("\n") else f" {text}\n"))
    return "".join(lines)


@st.composite
def _scenario_texts(draw):
    text = draw(_render(draw(_scenario_tree())))
    text = draw(st.sampled_from(HEADS)) + (text if text.endswith("\n") else text + "\n")
    # an anchor on the first number or flow sequence after a key, an alias on a later one
    values = [i + 2 for i in range(len(text) - 2) if text[i:i + 2] == ": "
              and (text[i + 2] in "[-.+" or text[i + 2].isdigit())]
    if len(values) >= 2 and draw(st.booleans()):
        first, later = values[0], draw(st.sampled_from(values[1:]))
        end = later + next(i for i, ch in enumerate(text[later:]) if ch in ",}\n")
        if "[" not in text[later:end]:
            text = text[:first] + "&v " + text[first:later] + "*v" + text[end:]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(EDITS))
        text = text[:at] + edit + text[at + draw(st.integers(0, 1)):]
    return text


def _read(loader, text):
    try:
        return "ok", repr(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, *scenario._CONSTRUCTOR_ERRORS):
        return "refused", None
    except (scenario._HandOver, TypeError):  # from the event pass alone
        return "handed over", None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_scenario_texts())
def test_both_loaders_agree_on_scenario_texts(text):
    assert "\t" not in text
    passed = _read(scenario._EventLoader, text)
    assert passed in (_read(yaml.CSafeLoader, text), ("handed over", None))
    # what the pass builds, '!' in a comment or a quoted string included, the Python loader builds
    if passed[0] == "ok":
        assert _read(yaml.SafeLoader, text) == passed
    outcome = _outcome(text)
    with _python_loader_only():
        # the same Scenario, or the same message, with its line and column
        assert _outcome(text) == outcome


# ---------------------------------------------------------------------------
# The event pass on the libyaml path
# ---------------------------------------------------------------------------

DEEP_VALUE = "geometry: {kind: patch, a: 1.0, b: " + "[" * 1500 + "]" * 1500 + "}\n"
MERGED_CELL = ("geometry:\n  kind: planar\n  cells:\n"
               "    - &base {position: [0.0, 0.0, 0.0], a: 0.4, b: 0.3, phase: 0.5}\n"
               "    - <<: *base\n      position: [0.5, 0.0, 0.0]\n")
SHARED_CELL = ("geometry:\n  kind: planar\n  cells:\n"
               "    - &cell {position: [0.0, 0.0, 0.0], a: 0.4, b: 0.3, phase: 0.5}\n"
               "    - *cell\n")


@pytest.mark.parametrize("text,handed_over", [
    ("a: &x [1, {b: 2}]\nb: *x\nc: [*x]\n", False),
    (MERGED_CELL, True),
    ("a: {=: 1, b: 2}\n", True),
    ("a: 1\nb: {c: 2, c: 3}\na: 4\n", False),
    ("? [1]\n: x\n", True),
    ("a: 2001-12-14t21:59:43.10-05:00\nb: 2002-12-14\nc: 2001-12-14 21:59:43.10\n", False),
    ("a: [~, null, true, No, 0x1F, 0o17, 1:30, -.inf, .NaN, 1_000.5, '1', \"x\", 12e3]\n", False),
    ("a: !!str 1\n", True),
    ("a: !!set {x}\n", True),
    # what only libyaml's composer refuses
    ("a: &x 1\nb: &x 2\n", True),
    ("a: *y\n", True),
    ("--- 1\n--- 2\n", True),
    ("", False),
    ("&a [*a]\n", False),
    (SHARED_CELL, False),
], ids=["alias", "merge", "value-key", "duplicate-key", "unhashable-key", "timestamp", "scalars",
        "scalar-tag", "collection-tag", "duplicate-anchor", "undefined-alias", "two-documents",
        "empty-stream", "recursive-alias", "shared-cell"])
def test_the_event_pass_builds_what_csafeloader_builds(loaders, text, handed_over):
    try:
        loaded = "ok", repr(scenario._load_yaml(text))
    except ScenarioError:
        loaded = "refused", None
    assert loaded == _read(yaml.CSafeLoader, text)
    # the event pass, the Python loader if the pass handed over, then the reference
    assert loaders == [scenario._EventLoader, *[scenario._LocatingLoader] * handed_over,
                       yaml.CSafeLoader]


def _resolved(value):
    """A plain scalar as resolve and the SafeConstructor function of its tag read it."""
    loader = yaml.SafeLoader("")
    tag = loader.resolve(yaml.ScalarNode, value, (True, False))
    return yaml.constructor.SafeConstructor.yaml_constructors[tag](
        loader, yaml.ScalarNode(tag, value))


def _same(read):
    """(type, bits) of what read() returns, or the type of the exception it raises."""
    try:
        value = read()
    except scenario._CONSTRUCTOR_ERRORS as exc:
        return type(exc).__name__
    bits = np.float64(value).view(np.uint64) if isinstance(value, float) else value
    return type(value).__name__, bits


HUGE_INT = "9" * 5000
# signs, leading zeros, '_', exponents with and without a sign, '.5', '1.' and
# sexagesimal forms, around the decimal notation of scenario._NUMBER
PLAIN_SCALARS = (st.from_regex(r"[-+]?[0-9_]{0,4}[0-9](?::[0-5]?[0-9]){0,2}(?:\.[0-9_]{0,6})?"
                               r"(?:[eE][-+]?[0-9]{1,3})?", fullmatch=True)
                 | st.from_regex(r"-?\.[0-9]{1,6}|-?[0-9]{1,40}\.?", fullmatch=True)
                 | st.floats(allow_nan=False, allow_infinity=False).map(repr)
                 | st.integers(-10 ** 40, 10 ** 40).map(str)
                 | st.sampled_from(["+1", "-0", "-0.0", "0.0", "007", "00.5", "1_000", "1e5",
                                    "1e+5", "1.5E-3", ".5", "1.", "1:30", "1:30.5", HUGE_INT,
                                    "-" + HUGE_INT, HUGE_INT + ".5", "1.5e-05", "2.5E+3",
                                    "-0.0e+0", "1.0e5", "1e-05", "9" * 640, "9" * 641]))


@settings(max_examples=400, deadline=None)
@given(value=PLAIN_SCALARS)
def test_a_plain_scalar_is_read_as_resolve_and_its_constructor_read_it(value):
    # floats compared by their bits, so that -0.0 is not 0.0; a 5000-digit integer
    # raises int()'s ValueError on both paths, which _load_yaml hands over
    got = _same(lambda: yaml.load(f"- {value}\n", Loader=scenario._EventLoader)[0])
    assert got == _same(lambda: _resolved(value))


def test_plain_decimals_and_repeated_words_are_read_without_resolve(monkeypatch):
    seen = []
    resolve = scenario._EventLoader.resolve

    def spy(self, kind, value, implicit):
        seen.append(value)
        return resolve(self, kind, value, implicit)

    monkeypatch.setattr(scenario._EventLoader, "resolve", spy)
    text = _planar_text(_cell_rows(64)) + "output: {format: csv, path: 'out.csv'}\n"
    geometry = yaml.load(text, Loader=scenario._EventLoader)["geometry"]
    assert len(geometry["cells"]) == 64
    # each plain word once, and every quoted scalar
    assert seen == ["geometry", "kind", "planar", "cells", "position", "a", "b", "phase", "area",
                    "output", "format", "csv", "path", "out.csv"]


def test_an_integer_past_the_digit_limit_is_handed_to_the_python_loader(loaders):
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4400:
        pytest.skip("int() reads 4400 digits on this Python")
    text = "geometry: {kind: patch, a: " + "9" * 4400 + ", b: 1.0}\n"
    with pytest.raises(ScenarioError, match="^scenario parse error at line 1, column 28: "):
        parse_scenario(text)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]


def test_the_event_pass_needs_no_path_resolver():
    # without path resolvers, resolve reads only its arguments, and an untagged
    # collection is a map or a seq whatever its place in the document
    assert scenario._EventLoader.yaml_path_resolvers == {}
    loader = scenario._EventLoader("")
    assert loader.resolve(yaml.MappingNode, None, True) == "tag:yaml.org,2002:map"
    assert loader.resolve(yaml.SequenceNode, None, True) == "tag:yaml.org,2002:seq"


def test_an_aliased_collection_is_built_once():
    doc = yaml.load("a: &x [1, {b: 2}]\nb: *x\nc: [*x]\n", Loader=scenario._EventLoader)
    assert doc["a"] is doc["b"] is doc["c"][0]
    cells = yaml.load(SHARED_CELL, Loader=scenario._EventLoader)["geometry"]["cells"]
    assert cells[0] is cells[1]
    recursive = yaml.load("&a [*a]\n", Loader=scenario._EventLoader)
    assert recursive[0] is recursive


def test_a_merged_cell_is_read(loaders):
    scn = parse_scenario(MERGED_CELL)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]
    assert scn.geometry.positions.tolist() == [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
    assert scn.geometry.phases.tolist() == [0.5, 0.5]


def test_a_shared_cell_is_read(loaders):
    scn = parse_scenario(SHARED_CELL)
    assert loaders == [scenario._EventLoader]
    assert scn.geometry.positions.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]


def test_nesting_past_the_recursion_limit_is_built_by_the_event_pass(loaders):
    def depth(value):
        levels = 0
        while isinstance(value, list):
            value, levels = (value[0] if value else None), levels + 1
        return levels

    built = yaml.load(DEEP_VALUE, Loader=scenario._EventLoader)
    assert loaders == [scenario._EventLoader]
    assert depth(built["geometry"]["b"]) == 1500
    assert depth(yaml.load(DEEP_VALUE, Loader=yaml.CSafeLoader)["geometry"]["b"]) == 1500


# ---------------------------------------------------------------------------
# Planar cells read as columns
# ---------------------------------------------------------------------------

def _cell_by_cell(cells):
    """(positions, a, b, areas, phases) of valid cells, read one cell at a time.

    The reference of the column reader: Python floats, a * b for a missing area
    and float(phase) % (2 pi) for the phase.
    """
    positions = [[float(x) for x in c["position"]] for c in cells]
    a, b = ([float(c[key]) for c in cells] for key in "ab")
    areas = [float(c["area"]) if "area" in c else float(c["a"]) * float(c["b"]) for c in cells]
    phases = [float(c.get("phase", 0.0)) % (2.0 * math.pi) for c in cells]
    return tuple(np.array(column, dtype=float) for column in (positions, a, b, areas, phases))


_COORDINATES = (st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-10 ** 308, 10 ** 308)
                | st.sampled_from([int(sys.float_info.max), -int(sys.float_info.max)]))
_POSITIVE = st.floats(min_value=5e-324, allow_infinity=False) | st.integers(1, 10 ** 308)
# a phase just under zero reduces to 2 pi itself
_PHASES = _COORDINATES | st.sampled_from([-0.0, -1e-17, -5e-324, 2 * math.pi, -2 * math.pi])
_CELLS = st.lists(st.fixed_dictionaries(
    {"position": st.lists(_COORDINATES, min_size=3, max_size=3), "a": _POSITIVE, "b": _POSITIVE},
    optional={"area": _POSITIVE, "phase": _PHASES}), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(cells=_CELLS)
def test_columns_keep_the_bits_of_the_cell_by_cell_reader(cells):
    _, columns = scenario._parse_geometry({"kind": "planar", "cells": cells},
                                          scenario.WaveContext())
    for name, want in zip(("positions", "a", "b", "areas", "phases"), _cell_by_cell(cells)):
        got = getattr(columns, name)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


def _cell_rows(count=1024):
    """{key: YAML text} of seeded valid cells, every other one with an area."""
    return [{"position": f"[{0.5 * (i % 32)}, {0.5 * (i // 32)}, {0.001 * (i % 7)}]",
             "a": "0.3", "b": "0.4", **({"area": "0.1"} if i % 2 else {}),
             "phase": f"{0.01 * i}"} for i in range(count)]


def _planar_text(rows):
    """A planar scenario of cell rows in the benchmark's flow layout."""
    return "geometry:\n  kind: planar\n  cells:\n" + "".join(
        "    - {" + ", ".join(f"{key}: {value}" for key, value in row.items()) + "}\n"
        for row in rows)


REFUSED_CELLS = {
    "bool-in-position": lambda row: {**row, "position": "[true, 0.5, 0.0]"},
    "string-in-position": lambda row: {**row, "position": "[x, 0.5, 0.0]"},
    "huge-int-in-position": lambda row: {**row, "position": "[" + "9" * 320 + ", 0.5, 0.0]"},
    "null-in-position": lambda row: {**row, "position": "[~, 0.5, 0.0]"},
    "position-of-2": lambda row: {**row, "position": "[0.5, 0.0]"},
    "position-of-4": lambda row: {**row, "position": "[0.5, 0.0, 0.0, 1.0]"},
    "missing-key": lambda row: {k: v for k, v in row.items() if k != "b"},
    "misspelt-key": lambda row: {("phse" if k == "phase" else k): v for k, v in row.items()},
    "zero-a": lambda row: {**row, "a": "0"},
    "negative-b": lambda row: {**row, "b": "-1"},
    "zero-area": lambda row: {**row, "area": "0"},
    "null-area": lambda row: {**row, "area": "~"},
    "null-phase": lambda row: {**row, "phase": "~"},
    "infinite-phase": lambda row: {**row, "phase": ".inf"},
    "nan-area": lambda row: {**row, "area": ".nan"},
    "bool-a": lambda row: {**row, "a": "true"},
    "quoted-b": lambda row: {**row, "b": '"0.3"'},
    # rounds to the largest float, where the check of one value refuses it
    "int-past-the-largest-float": lambda row: {
        **row, "position": f"[{int(sys.float_info.max) + 1}, 0.5, 0.0]"},
}


_POSITION_WORDS = "'geometry.cells[{at}].position' must be a list of three finite numbers, got "
# the message of each refused cell at cells[at], as the reader that read every cell gave it
REFUSED_MESSAGES = {
    "bool-in-position": _POSITION_WORDS + "[True, 0.5, 0.0]",
    "string-in-position": _POSITION_WORDS + "['x', 0.5, 0.0]",
    "huge-int-in-position": _POSITION_WORDS + "[" + "9" * 320 + ", 0.5, 0.0]",
    "null-in-position": _POSITION_WORDS + "[None, 0.5, 0.0]",
    "position-of-2": _POSITION_WORDS + "[0.5, 0.0]",
    "position-of-4": _POSITION_WORDS + "[0.5, 0.0, 0.0, 1.0]",
    "missing-key": "'geometry.cells[{at}].b' must be a finite number, but is missing",
    "misspelt-key": "unknown key(s) in 'geometry.cells[{at}]': phse",
    "zero-a": "invalid 'geometry.cells[{at}]': cell edges must be positive and finite",
    "negative-b": "invalid 'geometry.cells[{at}]': cell edges must be positive and finite",
    "zero-area": "invalid 'geometry.cells[{at}]': cell area must be positive and finite",
    "null-area": "'geometry.cells[{at}].area' must be a finite number, got None",
    "null-phase": "'geometry.cells[{at}].phase' must be a finite number, got None",
    "infinite-phase": "'geometry.cells[{at}].phase' must be a finite number, got inf",
    "nan-area": "'geometry.cells[{at}].area' must be a finite number, got nan",
    "bool-a": "'geometry.cells[{at}].a' must be a finite number, got True",
    "quoted-b": "'geometry.cells[{at}].b' must be a finite number, got '0.3'",
    "int-past-the-largest-float": _POSITION_WORDS + f"[{int(sys.float_info.max) + 1}, 0.5, 0.0]",
}


@pytest.mark.parametrize("at", [0, 700])
@pytest.mark.parametrize("kind", REFUSED_CELLS)
def test_a_refused_cell_gets_the_cell_by_cell_message(kind, at):
    assert REFUSED_MESSAGES.keys() == REFUSED_CELLS.keys()
    rows = _cell_rows()
    rows[at] = REFUSED_CELLS[kind](rows[at])
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(_planar_text(rows))
    assert str(parsed.value) == REFUSED_MESSAGES[kind].format(at=at)


@pytest.mark.parametrize("at_700,at_900,named", [
    # a cell with an unknown key is named first, wherever it stands
    ("bool-in-position", "misspelt-key", 900),
    ("zero-area", "misspelt-key", 900),
    ("misspelt-key", "zero-a", 700),
    # otherwise the first refused cell, whether its reads or its checks refuse it
    ("bool-in-position", "null-phase", 700),
    ("zero-a", "quoted-b", 700),
    ("quoted-b", "zero-a", 700),
    ("zero-area", "negative-b", 700),
])
def test_of_two_refused_cells_the_per_cell_reader_names_the_same(at_700, at_900, named):
    rows = _cell_rows()
    rows[700], rows[900] = REFUSED_CELLS[at_700](rows[700]), REFUSED_CELLS[at_900](rows[900])
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(_planar_text(rows))
    kind = at_700 if named == 700 else at_900
    assert str(parsed.value) == REFUSED_MESSAGES[kind].format(at=named)


@pytest.mark.parametrize("cell", [5, [1.0, 2.0], None, "cell"])
def test_a_cell_that_is_not_a_mapping_is_named_first(cell):
    cells = [{"position": [0, 0, 0], "a": 0.3, "b": 0.3} for _ in range(6)]
    cells[2]["a"], cells[4] = 0.0, cell
    with pytest.raises(ScenarioError, match=r"^section 'geometry\.cells\[4\]' must be a mapping$"):
        scenario._parse_geometry({"kind": "planar", "cells": cells}, scenario.WaveContext())


def _spy_on_sections(monkeypatch) -> list:
    """The names of the _Section objects that scenario builds from now on."""
    names = []

    class Spy(scenario._Section):
        def __init__(self, node, name, keys):
            names.append(name)
            super().__init__(node, name, keys)

    monkeypatch.setattr(scenario, "_Section", Spy)
    return names


@pytest.mark.parametrize("kind", REFUSED_CELLS)
def test_only_the_refused_cell_is_read_again(monkeypatch, kind):
    rows = _cell_rows()
    rows[700] = REFUSED_CELLS[kind](rows[700])
    names = _spy_on_sections(monkeypatch)
    with pytest.raises(ScenarioError, match=r"'geometry\.cells\[700\]"):
        parse_scenario(_planar_text(rows))
    cells = [name for name in names if str(name).startswith("geometry.cells")]
    assert cells == ["geometry.cells[700]"]


@pytest.mark.parametrize("refuse", REFUSED_CELLS.values(), ids=REFUSED_CELLS)
def test_a_first_row_the_grammar_refuses_is_never_read_as_json(monkeypatch, refuse):
    rows = _cell_rows()
    rows[0] = refuse(rows[0])
    text = _planar_text(rows)
    first = text[text.index("    - "):text.index("\n", text.index("    - ")) + 1]
    loads, calls = json.loads, []

    def spy(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(scenario.json, "loads", spy)
    with pytest.raises(ScenarioError, match=r"'geometry\.cells\[0\]"):
        parse_scenario(text)
    # a first row that the grammar reads leaves the whole table to one json.loads
    assert len(calls) == (re.fullmatch(scenario._CELL_ROW, first.lstrip()) is not None)


def test_valid_cells_are_read_as_whole_columns(monkeypatch):
    names = _spy_on_sections(monkeypatch)
    check, checked = scenario._is_finite_number, []

    def spy(value):
        checked.append(value)
        return check(value)

    monkeypatch.setattr(scenario, "_is_finite_number", spy)
    assert len(parse_scenario(_planar_text(_cell_rows())).geometry.phases) == 1024
    # no column of 1024 values is checked value by value (the observation's defaults are),
    # and no cell is read as a section
    assert len(checked) < 1024
    assert not any(str(name).startswith("geometry.cells") for name in names)


# ---------------------------------------------------------------------------
# The row reader of planar cell tables
# ---------------------------------------------------------------------------

# the number forms of the row grammar (scenario._NUMBER), the benchmark's '%.17e' among them
ROW_NUMBERS = (st.integers(-10 ** 20, 10 ** 20).map(str)
               | st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17e}")
               | st.floats(-1e6, 1e6).map(lambda x: f"{x:.6f}")
               | st.sampled_from(["0", "-0", "0.0", "-0.0", "-0.0e+0", "1.5e-05", "2.5E+3",
                                  "1.0e+999", "-1.0e-999", "9" * 640]))
# values the row grammar refuses, each of which YAML reads
NEAR_NUMBERS = st.sampled_from(["+1.0", ".5", "1.", "1_0", "1.0e5", "1e-05", "007", "0x1F",
                                "1:30", "9" * 641, "~", "true", ".inf", "'0.5'", "[1, 2]"])
# the edits that leave a text to the event pass, and those the row reader takes
FALLBACK_EDITS = ["near-number", "comment", "trailing-space", "tab", "crlf", "no-final-newline",
                  "repeated-key", "row-anchor", "block-scalar", "comment-line"]
TAKEN_EDITS = ["cells-anchor", "word-present", "tail"]


@st.composite
def _row(draw, numbers):
    """One cell row's flow mapping: a subset of the cell keys in a shuffled order."""
    keys = draw(st.permutations(sorted(scenario._CELL_KEYS)))[:draw(st.integers(0, 5))]
    items = [f"{key}: " + ("[" + ", ".join(draw(numbers) for _ in range(3)) + "]"
                          if key == "position" else draw(numbers)) for key in keys]
    return "{" + ", ".join(items) + "}"


@st.composite
def _cell_table_texts(draw):
    """(text, edits) of a planar scenario whose cells are one-line rows, with edits applied."""
    edits = draw(st.sets(st.sampled_from(FALLBACK_EDITS + TAKEN_EDITS), max_size=3))
    # "  " is an indentless sequence, at the column of its key
    indent = draw(st.sampled_from(["  ", "   ", "    ", "        "]))
    if edits & {"tail", "row-anchor", "cells-anchor"}:
        edits.discard("no-final-newline")  # the text ends in a row only without them
    rows = draw(st.lists(_row(ROW_NUMBERS), min_size=1 + ("comment-line" in edits), max_size=6))

    def pick():
        return draw(st.integers(0, len(rows) - 1))

    if "near-number" in edits:
        rows[pick()] = draw(_row(NEAR_NUMBERS).filter(lambda row: ":" in row))
    if "repeated-key" in edits:
        at = pick()
        rows[at] = rows[at][:-1] + (", " if len(rows[at]) > 2 else "") + "a: 0.5, a: 1}"
    if "tab" in edits:
        at = pick()
        rows[at] = rows[at].replace(": ", ":\t", 1) if ":" in rows[at] else "{\t}"
    lines = [indent + "- " + row for row in rows]
    if "row-anchor" in edits:
        at = pick()
        lines[at] = lines[at].replace("- ", "- &r ", 1)
    for edit, tail in (("comment", " # note"), ("trailing-space", " ")):
        if edit in edits:
            lines[pick()] += tail
    if "comment-line" in edits:
        lines.insert(draw(st.integers(1, len(lines) - 1)), indent + "# a note")
    anchor = " &c" if "cells-anchor" in edits else ""
    text = f"geometry:\n  kind: planar\n  cells:{anchor}\n" + "\n".join(lines) + "\n"
    if "block-scalar" in edits:
        # the first 'cells:' and the first rows are the block scalar's
        text = "note: |\n  cells:\n" + "".join(f"  - {row}\n" for row in rows) + text
    if "word-present" in edits:
        text = "# rows rowsrows\n" + text
    if "tail" in edits:
        text += "incident: [{theta_deg: 20.0}]\nobservation: {radius: 50.0}\n"
    if "row-anchor" in edits:
        text += "alias: *r\n"
    if "cells-anchor" in edits:
        text += "alias: *c\n"
    if "no-final-newline" in edits:
        text = text[:-1]
    if "crlf" in edits:
        text = text.replace("\n", "\r\n")
    return text, edits


def _document(load, text):
    """The canonical document that load(text) gives, or 'refused'."""
    try:
        return _canonical(load(text))
    except (ScenarioError, yaml.YAMLError, *scenario._CONSTRUCTOR_ERRORS):
        return "refused"


@settings(max_examples=150, deadline=None)
@given(case=_cell_table_texts())
def test_the_row_reader_reads_what_csafeloader_reads(case):
    text, edits = case
    reference = _document(lambda t: yaml.load(t, Loader=yaml.CSafeLoader), text)
    assert _document(scenario._load_yaml, text) == reference
    taken = scenario._read_cell_rows(text)
    # every text without a fall-back edit is read by the row reader, and what it reads is
    # the document; the fall-back edits are each left to the event pass
    assert (taken is not None) == edits.isdisjoint(FALLBACK_EDITS)
    if taken is not None:
        assert _canonical(taken) == reference
        if "cells-anchor" in edits:
            assert taken["alias"] is taken["geometry"]["cells"]


def test_a_cell_table_reaches_the_event_pass_as_a_short_text(monkeypatch):
    seen = []
    load = yaml.load

    def spy(stream, Loader):
        seen.append((Loader, len(stream)))
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)
    text = _planar_text(_cell_rows())
    assert len(parse_scenario(text).geometry.phases) == 1024
    assert [loader for loader, _ in seen] == [scenario._EventLoader]
    assert seen[0][1] < 1000 < len(text)
