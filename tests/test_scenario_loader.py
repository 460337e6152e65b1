"""The scenario YAML loader: libyaml's event pass, and the pure-Python fallback.

The libyaml path builds its document from libyaml's events in one iterative
pass, which must build what yaml.CSafeLoader builds. The pass refuses a text
nested _MAX_DEPTH collections deep as nesting too deep, and hands every other
text it does not finish to the pure-Python loader. These tests check which
loader runs at the pass's limit, that deep texts exit
2 in a child process (a crash would end it by a signal), also from a thread
with a small stack (as does a deep desired-pattern file), that a parse starts
no thread, that a long or deep refused value is quoted in one short line, that
a desired-pattern file is decoded only where it nests 64 levels or less (its
strings' brackets uncounted), what the event pass
hands over (a tag, an anchor or an alias among it), that it reads plain
decimals without resolve and other plain scalars as resolve and its
constructor read them, and that both loaders give the same scenario.
Planar cells are read as columns, which must keep the bits and the refusals
of the cell-by-cell reader. A planar cell table of one-line rows is read by
the row reader, which must give what yaml.CSafeLoader gives, leave every
other table to its one event pass, and hand a text over to the Python loader
only where that pass does, so that no text takes two event passes.
"""
import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
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
    """The canonical Scenario of text, or the one-line message of what it raises.

    A ScenarioError is the CLI's 'error' (exit 2), and a MemoryError, such as
    that of a linear n too large to allocate, its 'numerical failure' (exit 3).
    """
    try:
        return _canonical(parse_scenario(text))
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"
    except MemoryError as exc:
        return f"numerical failure: {exc}"


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


@pytest.mark.parametrize("text, message", [
    # 1500 levels, under the pass's limit: the pass builds it, and the message quotes six
    ("geometry: {kind: patch, a: 1.0, b: " + "[" * 1500 + "]" * 1500 + "}\n",
     "'geometry.b' must be a finite number, got [[[[[[[...]]]]]]]"),
    # aliases nest 1500 levels while the composer sees two; the message quotes 20 items
    ("geometry: {kind: patch, b: 1.0, a: ["
     + ", ".join(["&x0 [1]"] + [f"&x{i} [*x{i - 1}]" for i in range(1, 1500)]) + "]}\n",
     "'geometry.a' must be a finite number, got [[1], [[1]], [[[1]]], [[[[1]]]], [[[[[1]]]]], "
     + "[[[[[[...]]]]]], " * 15 + "...]"),
], ids=["c-loaded", "aliases"])
def test_deep_value_in_a_message_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "deep.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    # quoted whole, this error took 688 943 bytes
    ("geometry: {kind: linear, n: [" + ", ".join(map(str, range(100_000)))
     + "], spacing: 0.5, a: 0.1, b: 0.1}\n",
     "'geometry.n' must be a positive integer, got [" + ", ".join(map(str, range(20)))
     + ", ...]"),
    ("geometry: {kind: patch, a: 1.0, b: 1.0, " + ", ".join(f"k{i}: 1" for i in range(30))
     + "}\n",
     "unknown key(s) in 'geometry': " + ", ".join(sorted(f"k{i}" for i in range(30))[:20])
     + " and 10 more"),
    # an int past the 4300 digits that str writes: repr raised ValueError, naming no key
    ("geometry: {kind: patch, a: 0x" + "f" * 5000 + ", b: 1}\n",
     "'geometry.a' must be a finite number, got 0x" + "f" * 96 + "..." + "f" * 99),
], ids=["long-value", "many-unknown-keys", "int-past-the-digit-limit"])
def test_a_long_refused_value_gives_one_short_line(tmp_path, capsys, text, message):
    path = tmp_path / "long.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and len(err) <= 250


@pytest.mark.parametrize("tag", ["!!float", "!!int", "!!bool", "!!timestamp"])
def test_a_long_scalar_its_constructor_refuses_gives_one_short_line(tmp_path, capsys, tag):
    # quoted by the constructor's own reason, the !!float line took 100 088 bytes
    path = tmp_path / "long.yaml"
    path.write_text(f"a: {tag} " + "x" * 100_000 + "\n", encoding="utf-8")
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: scenario parse error at line 1, column 4: cannot read "
                   f"'{'x' * 97}...{'x' * 98}' as {tag}\n") and len(err) < 300


def test_a_parse_starts_no_thread_and_reads_no_stack_limit(monkeypatch):
    import resource
    start, started, parsed = threading.Thread.start, [], []

    def spy(self):
        started.append(self)
        start(self)

    def refused(*args):
        raise AssertionError("the stack limit was read")

    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setattr(resource, "getrlimit", refused)
    parsed.append(parse_scenario(POINTS_SCENARIO))
    worker = threading.Thread(target=lambda: parsed.append(parse_scenario(POINTS_SCENARIO)))
    worker.start()
    worker.join()
    assert started == [worker] and len(parsed) == 2


@pytest.mark.parametrize("text, deep", [
    # brackets inside a string are no nesting
    ('{"note": "' + "[" * 5000 + '", "desired": [[1.0, 0.5], [0.0, -1.0]]}', False),
    ("[" * 64 + "]" * 64, False),
    ("[" * 65 + "]" * 65, True),
    # a string of closing brackets does not hide the nesting after it
    ('{"note": "' + "]" * 5000 + '", "desired": ' + "[" * 5000 + "]" * 5000 + "}", True),
    ('{"note": "\\"]]", "desired": ' + "[" * 65 + "]" * 65 + "}", True),
], ids=["brackets-in-a-string", "64-deep", "65-deep", "deep-after-closing-brackets",
        "escaped-quote"])
def test_a_desired_file_is_decoded_only_64_levels_deep(tmp_path, monkeypatch, text, deep):
    decoded, loads = [], json.loads

    def spy(document, *args, **kwargs):
        decoded.append(document)
        return loads(document, *args, **kwargs)

    monkeypatch.setattr(scenario.json, "loads", spy)
    path = tmp_path / "desired.json"
    path.write_text(text, encoding="utf-8")
    if deep:
        with pytest.raises(ScenarioError, match="^desired pattern file is nested too deeply$"):
            scenario._load_desired_pattern(str(path), 2)
        assert decoded == []
    elif text.startswith("["):
        with pytest.raises(ScenarioError, match="must hold 2 finite"):
            scenario._load_desired_pattern(str(path), 2)
        assert decoded == [text]
    else:
        assert scenario._load_desired_pattern(str(path), 2).tolist() == [1 + 0.5j, -1j]


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
     "scenario parse error at line 1, column 28: cannot read 'x' as !!float"),
    ("geometry: {kind: linear, n: !!int x, spacing: 0.5, a: 0.1, b: 0.1}\n",
     "scenario parse error at line 1, column 29: cannot read 'x' as !!int"),
    ("geometry: {kind: patch, a: 1, b: 1}\noutput: {path: !!timestamp 2020-13-45}\n",
     "scenario parse error at line 2, column 16: cannot read '2020-13-45' as !!timestamp"),
    # an alias cycle, and an unknown tag the loader never reached
    ("a: &a [*a, [!foo y]]\nb: !!int x\n",
     "scenario parse error at line 2, column 4: cannot read 'x' as !!int"),
    # the scalar the construction meets first is located, with its own reason: the
    # top mapping's scalars come before the contents of its collections
    ('a: [!!float ""]\nb: !!int x\n',
     "scenario parse error at line 2, column 4: cannot read 'x' as !!int"),
    ("geometry: {kind: patch, a: 1, b: 1}\nwave: {gamma: [!!float , 1]}\n"
     "output: {path: !!int x}\n",
     "scenario parse error at line 3, column 16: cannot read 'x' as !!int"),
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


def test_an_anchored_text_with_a_tab_is_refused(loaders):
    # libyaml builds it, but the anchor hands it to the Python loader, which refuses the tab
    text = "a: &x {b: 1,\tc: 2}\nd: *x\n"
    with pytest.raises(ScenarioError, match="'\\\\t'"):
        parse_scenario(text)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]
    assert yaml.load(text, Loader=yaml.CSafeLoader) == {"a": {"b": 1, "c": 2},
                                                         "d": {"b": 1, "c": 2}}


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
# a linear n of 10^14 cells, which no machine allocates: both loaders give the MemoryError
@example(text="geometry: {kind: linear, a: -584, 'b': -1.7617468318424512e+18, area: 1:30, "
              "n: 100000000000000, spacing: -584}\nincident: []\nobservation:\n  radius: -524\n"
              "  grid: {'start_deg': 1:30, 'start_deg': 0, stop_deg: 4566561137}\n  grid:\n"
              "    start_deg: -0\n    start_deg: 1.1754943508222875e-38\n    count: 361\n"
              "    phi_deg: -32\n")
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
    ("a: &x [1, {b: 2}]\nb: *x\nc: [*x]\n", True),
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
    ("&a [*a]\n", True),
    (SHARED_CELL, True),
    # the anchor hands the text with its table cut over, and no second event pass runs
    ("geometry:\n  kind: planar\n  cells:\n    - {position: [0.0, 0.0, 0.0], a: 0.4}\n"
     "    - {a: 0.3}\noutput: &o {format: csv}\n", True),
], ids=["alias", "merge", "value-key", "duplicate-key", "unhashable-key", "timestamp", "scalars",
        "scalar-tag", "collection-tag", "duplicate-anchor", "undefined-alias", "two-documents",
        "empty-stream", "recursive-alias", "shared-cell", "anchor-after-a-table"])
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


def test_an_integer_past_the_digit_limit_is_handed_to_the_python_loader(loaders):
    if not 0 < sys.get_int_max_str_digits() < 4400:
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
    doc = scenario._load_yaml("a: &x [1, {b: 2}]\nb: *x\nc: [*x]\n")
    assert doc["a"] is doc["b"] is doc["c"][0]
    cells = scenario._load_yaml(SHARED_CELL)["geometry"]["cells"]
    assert cells[0] is cells[1]
    recursive = scenario._load_yaml("&a [*a]\n")
    assert recursive[0] is recursive


def test_a_merged_cell_is_read(loaders):
    scn = parse_scenario(MERGED_CELL)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]
    assert scn.geometry.positions.tolist() == [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
    assert scn.geometry.phases.tolist() == [0.5, 0.5]


def test_a_shared_cell_is_read(loaders):
    scn = parse_scenario(SHARED_CELL)
    assert loaders == [scenario._EventLoader, scenario._LocatingLoader]
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
# Scatter points read as columns
# ---------------------------------------------------------------------------

def _point_rows(count=1201):
    """{key: YAML text} of seeded valid scatter points, as in the benchmark's point files."""
    return [{"theta_deg": f"{-90.0 + 0.15 * i:.6f}"} for i in range(count)]


def _points_text(rows, kind="linear"):
    """A scenario of the geometry kind whose scatter points are the rows, one line each."""
    geometry = ("{kind: linear, n: 16, spacing: 0.5, a: 0.1, b: 0.1}" if kind == "linear"
                else "{kind: patch, a: 1.0, b: 1.0}")
    return (f"geometry: {geometry}\nincident:\n  - {{theta_deg: 20.0, amplitude: 1.0}}\n"
            "observation:\n  radius: 50.0\n  points:\n" + "".join(
                "    - " + (row if isinstance(row, str) else
                            "{" + ", ".join(f"{key}: {value}" for key, value in row.items()) + "}")
                + "\n" for row in rows))


REFUSED_POINTS = {
    "missing-theta": lambda row: {"phi_deg": "0.0"},
    "nan-theta": lambda row: {"theta_deg": ".nan"},
    # a string to YAML (no dot), and a float past the float range, which the row reader reads
    "1e400": lambda row: {"theta_deg": "1e400"},
    "1.0e+400": lambda row: {"theta_deg": "1.0e+400"},
    "outside": lambda row: {"theta_deg": "95.0"},
    "null-phi": lambda row: {**row, "phi_deg": "~"},
    "bool-theta": lambda row: {"theta_deg": "true"},
    "quoted-theta": lambda row: {"theta_deg": "'30.0'"},
    "unknown-key": lambda row: {**row, "a": "0.5"},
    "not-a-mapping": lambda row: "[1.0, 2.0]",
}
_THETA_WORDS = "'observation.points[{at}].theta_deg' must be a finite number, got "
# the message of each refused point at points[at], as the reader that read every point gave it
REFUSED_POINT_MESSAGES = {
    "missing-theta": ("'observation.points[{at}].theta_deg' must be a finite number, "
                      "but is missing"),
    "nan-theta": _THETA_WORDS + "nan",
    "1e400": _THETA_WORDS + "'1e400'",
    "1.0e+400": _THETA_WORDS + "inf",
    "outside": "'observation.points[{at}].theta_deg' must lie in [-90, 90] for a linear array",
    "null-phi": "'observation.points[{at}].phi_deg' must be a finite number, got None",
    "bool-theta": _THETA_WORDS + "True",
    "quoted-theta": _THETA_WORDS + "'30.0'",
    "unknown-key": "unknown key(s) in 'observation.points[{at}]': a",
    "not-a-mapping": "section 'observation.points[{at}]' must be a mapping",
}


@pytest.mark.parametrize("at", [0, 700])
@pytest.mark.parametrize("kind", REFUSED_POINTS)
def test_a_refused_point_gets_the_point_by_point_message(kind, at):
    assert REFUSED_POINT_MESSAGES.keys() == REFUSED_POINTS.keys()
    rows = _point_rows()
    rows[at] = REFUSED_POINTS[kind](rows[at])
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(_points_text(rows))
    assert str(parsed.value) == REFUSED_POINT_MESSAGES[kind].format(at=at)


@pytest.mark.parametrize("at_700,at_900,named", [
    # a refused value comes before the range check, and a point with an unknown key or
    # that is not a mapping before both, wherever it stands
    ("outside", "nan-theta", 900),
    ("nan-theta", "outside", 700),
    ("outside", "unknown-key", 900),
    ("null-phi", "not-a-mapping", 900),
    ("missing-theta", "null-phi", 700),
])
def test_of_two_refused_points_the_per_point_reader_names_the_same(at_700, at_900, named):
    rows = _point_rows()
    rows[700], rows[900] = REFUSED_POINTS[at_700](rows[700]), REFUSED_POINTS[at_900](rows[900])
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(_points_text(rows))
    kind = at_700 if named == 700 else at_900
    assert str(parsed.value) == REFUSED_POINT_MESSAGES[kind].format(at=named)


def test_a_point_outside_the_linear_range_is_read_on_other_geometries():
    rows = _point_rows()
    rows[700] = REFUSED_POINTS["outside"](rows[700])
    assert parse_scenario(_points_text(rows, "patch")).observation.theta_deg[700] == 95.0


@pytest.mark.parametrize("kind", ["nan-theta", "null-phi", "missing-theta"])
def test_only_the_refused_point_is_read_again(monkeypatch, kind):
    rows = _point_rows()
    rows[700] = REFUSED_POINTS[kind](rows[700])
    names = _spy_on_sections(monkeypatch)
    with pytest.raises(ScenarioError, match=r"'observation\.points\[700\]"):
        parse_scenario(_points_text(rows))
    assert [name for name in names if str(name).startswith("observation.points")] == [
        "observation.points[700]"]


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.fixed_dictionaries(
    {"theta_deg": _COORDINATES}, optional={"phi_deg": _COORDINATES}), min_size=1, max_size=12))
def test_point_columns_keep_the_bits_of_the_point_by_point_reader(points):
    observation = scenario._parse_observation({"points": points}, scenario.WaveContext(), [],
                                              linear=False)
    for name, key, default in (("theta_deg", "theta_deg", None), ("phi_deg", "phi_deg", 0.0)):
        want = np.array([float(p.get(key, default)) for p in points])
        got = getattr(observation, name)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


# ---------------------------------------------------------------------------
# The row reader of cell and point tables
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
# each table's section and the line of its key, a key of its rows, and a key of the other
# table's rows, which its row grammar refuses
TABLES = {"cells": ("geometry:\n  kind: planar\n", "  cells:", "a", "theta_deg"),
          "points": ("observation:\n  radius: 50.0\n", "  points:", "phi_deg", "a")}
# the edits that leave the edited table to the event pass, those that leave the whole text
# to it where the row reader reads the edited table, and those the row reader takes. An
# anchor ('row-anchor', 'key-anchor') leaves the whole text to the Python loader
TABLE_EDITS = ["near-number", "unknown-key", "comment", "trailing-space", "tab", "row-anchor",
               "comment-line", "flow", "no-final-newline"]
TEXT_EDITS = ["crlf", "repeated-key", "block-scalar", "key-anchor"]
TAKEN_EDITS = ["word-present", "tail"]


@st.composite
def _row(draw, table, numbers):
    """One row's flow mapping: a subset of the table's row keys in a shuffled order."""
    keys = sorted(scenario._CELL_KEYS if table == "cells" else scenario._POINT_KEYS)
    keys = draw(st.permutations(keys))[:draw(st.integers(0, len(keys)))]
    items = [f"{key}: " + ("[" + ", ".join(draw(numbers) for _ in range(3)) + "]"
                          if key == "position" else draw(numbers)) for key in keys]
    return "{" + ", ".join(items) + "}"


@st.composite
def _table_texts(draw):
    """(text, edits, tables, edited) of a scenario whose tables are one-line rows.

    tables is ('cells',), ('points',) or both, in the order of the text; the
    edits apply to the table named edited, or to the whole text.
    """
    tables = draw(st.sampled_from([("cells",), ("points",), ("cells", "points")]))
    edited = draw(st.sampled_from(tables))
    edits = draw(st.sets(st.sampled_from(TABLE_EDITS + TEXT_EDITS + TAKEN_EDITS), max_size=3))
    if edits & {"tail", "row-anchor", "key-anchor"}:
        edits.discard("no-final-newline")  # the text ends in a row only without them
    if "flow" in edits:
        edits -= {"comment", "trailing-space", "row-anchor", "comment-line", "block-scalar"}
    text = ""
    for table in tables:
        head, key_line, key, foreign = TABLES[table]
        # "  " is an indentless sequence, at the column of its key
        indent = draw(st.sampled_from(["  ", "   ", "    ", "        "]))
        rows = draw(st.lists(_row(table, ROW_NUMBERS), max_size=6,
                             min_size=1 + (table == edited and "comment-line" in edits)))
        anchor = ""
        if table == edited:
            def pick():
                return draw(st.integers(0, len(rows) - 1))

            if "near-number" in edits:
                rows[pick()] = draw(_row(table, NEAR_NUMBERS).filter(lambda row: ":" in row))
            # a key repeated, and a key of the other table's rows, at the end of a row
            for edit, items in (("repeated-key", f"{key}: 0.5, {key}: 1"),
                                ("unknown-key", f"{foreign}: 0.5")):
                if edit in edits:
                    at = pick()
                    rows[at] = rows[at][:-1] + (", " if len(rows[at]) > 2 else "") + items + "}"
            if "tab" in edits:
                at = pick()
                rows[at] = rows[at].replace(": ", ":\t", 1) if ":" in rows[at] else "{\t}"
            anchor = " &c" if "key-anchor" in edits else ""
        lines = [indent + "- " + row for row in rows]
        if table == edited:
            if "row-anchor" in edits:
                at = pick()
                lines[at] = lines[at].replace("- ", "- &r ", 1)
            for edit, tail in (("comment", " # note"), ("trailing-space", " ")):
                if edit in edits:
                    lines[pick()] += tail
            if "comment-line" in edits:
                lines.insert(draw(st.integers(1, len(lines) - 1)), indent + "# a note")
            if "block-scalar" in edits:
                # the first 'key:' and the first rows are the block scalar's
                text = (f"note: |\n{key_line}\n" + "".join(f"  - {row}\n" for row in rows)
                        + text)
        if table == edited and "flow" in edits:
            text += head + key_line + anchor + " [" + ", ".join(rows) + "]\n"
        else:
            text += head + key_line + anchor + "\n" + "".join(line + "\n" for line in lines)
    if "word-present" in edits:
        text = "# rows rowsrows\n" + text
    if "tail" in edits:
        text += "incident: [{theta_deg: 20.0}]\noutput: {format: csv}\n"
    if "row-anchor" in edits:
        text += "alias: *r\n"
    if "key-anchor" in edits:
        text += "alias: *c\n"
    if "no-final-newline" in edits:
        text = text[:-1]
    if "crlf" in edits:
        text = text.replace("\n", "\r\n")
    return text, edits, tables, edited


def _document(load, text):
    """The canonical document that load(text) gives, or 'refused'."""
    try:
        return _canonical(load(text))
    except (ScenarioError, yaml.YAMLError, *scenario._CONSTRUCTOR_ERRORS):
        return "refused"


PLANAR_WITH_POINTS = ("geometry:\n  kind: planar\n  cells:\n"
                      "    - {position: [0.0, 0.0, 0.0], a: 0.4, b: 0.4, phase: 0.5}\n"
                      "    - {b: 0.4, position: [0.5, 0.0, 0.0], a: 0.4}\n"
                      "incident: [{theta_deg: 20.0, phi_deg: 30.0}]\n"
                      "observation:\n  radius: 50.0\n  points:\n"
                      "    - {theta_deg: 10.0}\n    - {phi_deg: 45.0, theta_deg: -2.5e+1}\n")


@settings(max_examples=200, deadline=None)
@given(case=_table_texts())
# rows with phi_deg before theta_deg, and a planar text with a cell table and a point table
@example(case=(PLANAR_WITH_POINTS, set(), ("cells", "points"), "cells"))
@example(case=(PLANAR_WITH_POINTS.replace("theta_deg: 10.0", "theta_deg: +10.0"),
               {"near-number"}, ("cells", "points"), "points"))
@example(case=(PLANAR_WITH_POINTS.replace("theta_deg: 10.0", "theta_deg: 10.0, theta_deg: 1.0"),
               {"repeated-key"}, ("cells", "points"), "points"))
@example(case=(PLANAR_WITH_POINTS.split("  points:")[0]
               + "  points: [{theta_deg: 10.0}, {phi_deg: 45.0, theta_deg: -2.5e+1}]\n",
               {"flow"}, ("cells", "points"), "points"))
def test_the_row_reader_reads_what_csafeloader_reads(case):
    text, edits, tables, edited = case
    # an anchor or alias anywhere leaves the text to the Python loader, the reference then:
    # it refuses a tab that libyaml reads
    anchored = not edits.isdisjoint({"row-anchor", "key-anchor"})
    reference = _document(lambda t: yaml.load(
        t, Loader=yaml.SafeLoader if anchored else yaml.CSafeLoader), text)
    assert _document(scenario._load_yaml, text) == reference
    load, passed = yaml.load, []

    def spy(stream, Loader):
        passed.append(stream)
        return load(stream, Loader)

    with mock.patch.object(yaml, "load", spy):
        taken = scenario._read_rows(text)
    # The rows of a block scalar are cut unless the grammar refuses one of them, their CRLF
    # line ends stop them or one repeats a key, and their placeholder is then out of place.
    # That hands the whole text to the Python loader, as an anchor does.
    handed_over = anchored or ("block-scalar" in edits and edits.isdisjoint(
        {"near-number", "unknown-key", "tab", "repeated-key", "crlf"}))
    assert (taken is scenario._HandOver) == handed_over
    assert len(passed) == 1
    if taken is not scenario._HandOver:
        assert _canonical(taken) == reference
        # the tables the row reader leaves in the text for the event pass: the edited one
        # after an edit of its own, a repeated key or rows in a block scalar ahead of it,
        # the last one of a text without a final line break, and all of them with CRLF
        own = (set(TABLE_EDITS) - {"no-final-newline"}) | {"repeated-key", "block-scalar"}
        left = {edited} if edits & own else set()
        if "no-final-newline" in edits:
            left.add(tables[-1])
        if "crlf" in edits:
            left = set(tables)
        # a placeholder's word ends in 'rows', and no text of the strategy has 'rowscells'
        # or 'rowspoints'
        assert {t for t in tables if f"rows{t}\n" in passed[0]} == set(tables) - left


def _loaded_texts(monkeypatch) -> list:
    """The (Loader, text) of every yaml.load call from now on."""
    seen = []
    load = yaml.load

    def spy(stream, Loader):
        seen.append((Loader, stream))
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return seen


def test_a_cell_table_reaches_the_event_pass_as_a_short_text(monkeypatch):
    seen = _loaded_texts(monkeypatch)
    text = _planar_text(_cell_rows())
    assert len(parse_scenario(text).geometry.phases) == 1024
    assert [loader for loader, _ in seen] == [scenario._EventLoader]
    assert len(seen[0][1]) < 1000 < len(text)


def test_a_point_table_reaches_the_event_pass_as_a_short_text(monkeypatch):
    seen = _loaded_texts(monkeypatch)
    text = _points_text(_point_rows())
    assert len(parse_scenario(text).observation.theta_deg) == 1201
    assert [loader for loader, _ in seen] == [scenario._EventLoader]
    assert len(seen[0][1]) < 1000 < len(text)


def test_a_cell_table_is_cut_beside_a_point_table_that_repeats_a_key(monkeypatch):
    # the point table stays in the text for the event pass, whose later theta_deg is read
    text = (_planar_text(_cell_rows()) + "incident: [{theta_deg: 20.0}]\n"
            "observation:\n  radius: 50.0\n  points:\n"
            + "".join(f"    - {{theta_deg: {t}.0, theta_deg: {t + 1}.0}}\n"
                      for t in range(-80, 80)))
    seen = _loaded_texts(monkeypatch)
    doc = scenario._load_yaml(text)
    assert [loader for loader, _ in seen] == [scenario._EventLoader]
    assert "position" not in seen[0][1] and "theta_deg: -80.0" in seen[0][1]
    assert _canonical(doc) == _canonical(yaml.load(text, Loader=yaml.CSafeLoader))
    assert parse_scenario(text).observation.theta_deg.tolist() == list(range(-79, 81))


def test_a_text_without_a_table_compiles_no_pattern(monkeypatch):
    compiled = []
    compile_ = re.compile

    def spy(pattern, flags=0):
        compiled.append(pattern)
        return compile_(pattern, flags)

    monkeypatch.setattr(scenario.re, "compile", spy)
    parse_scenario("geometry: {kind: linear, n: 4, spacing: 0.5, a: 0.1, b: 0.1}\n"
                   "incident:\n  - {theta_deg: 20.0}\n"
                   "observation: {grid: {start_deg: -90.0, stop_deg: 90.0, count: 9}}\n")
    assert compiled == []


def _rows_line_by_line(text: str, key: str, row: str):
    """(start, end, indent) of key's table as a reading of one line at a time finds it."""
    at = text.find(key + ":")
    start = end = scenario._BLANK_LINES.match(text, text.index("\n", at) + 1).end()
    indent = None
    for line in text[start:].splitlines(keepends=True):
        found = re.fullmatch(r"( {0,99})" + row, line)
        if found is None or indent not in (None, found.group(1)):
            break
        indent, end = found.group(1), end + len(line)
    after = scenario._BLANK_LINES.match(text, end).end()
    if indent is None or text.startswith(indent + "-", after):
        return None
    return start, end, indent


@pytest.mark.parametrize("count", [63, 64, 65, 128, 129, 1024])
def test_a_table_is_one_match_cut_where_a_line_by_line_reading_cuts_it(monkeypatch, count):
    text = _planar_text(_cell_rows(count)) + "incident: [{theta_deg: 20.0}]\n"
    found = scenario._table_rows(text, "cells", scenario._CELL_ROW)
    assert found == _rows_line_by_line(text, "cells", scenario._CELL_ROW)
    start, end, indent = found
    assert indent == "    " and text[start:end].count("\n") == count
    seen = _loaded_texts(monkeypatch)
    doc = scenario._load_yaml(text)
    assert _canonical(doc) == _canonical(yaml.load(text, Loader=yaml.CSafeLoader))
    assert "position" not in seen[0][1]


def test_a_refused_65th_row_leaves_the_table_to_the_event_pass(monkeypatch):
    rows = _cell_rows(129)
    rows[64] = REFUSED_CELLS["bool-in-position"](rows[64])
    text = _planar_text(rows)
    assert scenario._table_rows(text, "cells", scenario._CELL_ROW) is None
    assert _rows_line_by_line(text, "cells", scenario._CELL_ROW) is None
    seen = _loaded_texts(monkeypatch)
    with pytest.raises(ScenarioError, match=r"'geometry\.cells\[64\]\.position"):
        parse_scenario(text)
    assert [loader for loader, _ in seen] == [scenario._EventLoader]
    assert seen[0][1] == text


def test_a_table_of_1024_rows_is_matched_in_a_few_kib():
    text = _planar_text(_cell_rows())
    scenario._table_rows(text, "cells", scenario._CELL_ROW)  # compiles the pattern
    tracemalloc.start()
    try:
        found = scenario._table_rows(text, "cells", scenario._CELL_ROW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None and peak < 64 * 1024
