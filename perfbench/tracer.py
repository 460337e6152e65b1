"""Spans around the program's public functions, recorded from outside.

The program has no spans of its own yet, so the traced run replaces each
wrapped function, in every risem module that binds it, by a wrapper that
records (name, start, end, parent span, job id) and, for some spans, a work
count (array terms or bytes). Spans stay in memory and are written out when
the run ends. A wrapped name that the program no longer has is reported as
absent and skipped.

Layers and the functions wrapped for each (core is shared and has no span):

  cli.main              risem.cli.main
  scenario.parse        parse_scenario, load_scenario
  scenario.sweep        run_sweep
  scenario.serialize    SweepResult.to_csv_text/.to_json_dict/.write,
                        the CLI's json.dumps and its output writer _emit
  config.configure      configure_linear, phase_compensation, random_phase_draw
  config.reshape        beam_reshape
  config.mc             monte_carlo_power_grid, monte_carlo_power
  config.expect         random_phase_expected_power/_rcs, random_phase_miso_expected_power
  linear.eval           steering_function, linear_field, linear_field_multi, linear_rcs
  linear.mimo           assemble_mimo, apply_mimo, MimoSystem.to_json_dict
  surface.eval          ris_scattered_field(_multi), ris_bistatic_rcs, ris_field_strength
  patch.eval            patch_scattered_field(_multi), patch_bistatic_rcs, patch_field_strength
  presets.reproduce     reproduce
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _linear_terms(fn_name):
    def terms(args, kwargs):
        ris = args[0]
        if fn_name == "linear_field_multi":
            return ris.n * len(args[1])
        if fn_name in ("steering_function", "linear_rcs"):
            return ris.n * _size(args[1]) * _size(args[2])
        return ris.n
    return terms


def _surface_terms(fn_name):
    def terms(args, kwargs):
        cells = len(args[0].cells)
        return cells * len(args[1]) if fn_name.endswith("_multi") else cells
    return terms


def _text_bytes(args, kwargs, result):
    return len(result) if isinstance(result, str) else 0


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return os.path.getsize(path) if isinstance(path, str) and os.path.exists(path) else 0


# (layer, module, attribute path, terms(args, kwargs) or None, bytes(args, kwargs, result) or None)
SPANS = [
    ("cli.main", "risem.cli", "main", None, None),
    ("scenario.parse", "risem.scenario", "parse_scenario", None, None),
    ("scenario.parse", "risem.scenario", "load_scenario", None, None),
    ("scenario.sweep", "risem.scenario", "run_sweep", None, None),
    ("scenario.serialize", "risem.scenario", "SweepResult.to_csv_text", None, _text_bytes),
    ("scenario.serialize", "risem.scenario", "SweepResult.to_json_dict", None, None),
    ("scenario.serialize", "risem.scenario", "SweepResult.write", None, _file_bytes),
    ("scenario.serialize", "risem.cli", "json.dumps", None, _text_bytes),
    ("scenario.serialize", "risem.cli", "_emit", None, None),
    ("config.configure", "risem.scenario", "configure_linear", None, None),
    ("config.configure", "risem.config", "phase_compensation", None, None),
    ("config.configure", "risem.config", "random_phase_draw", None, None),
    ("config.reshape", "risem.config", "beam_reshape", None, None),
    ("config.mc", "risem.config", "monte_carlo_power_grid", None, None),
    ("config.mc", "risem.config", "monte_carlo_power", None, None),
    ("config.expect", "risem.config", "random_phase_expected_power", None, None),
    ("config.expect", "risem.config", "random_phase_expected_rcs", None, None),
    ("config.expect", "risem.config", "random_phase_miso_expected_power", None, None),
    ("linear.eval", "risem.linear", "steering_function", _linear_terms("steering_function"), None),
    ("linear.eval", "risem.linear", "linear_field", _linear_terms("linear_field"), None),
    ("linear.eval", "risem.linear", "linear_field_multi", _linear_terms("linear_field_multi"), None),
    ("linear.eval", "risem.linear", "linear_rcs", _linear_terms("linear_rcs"), None),
    ("linear.mimo", "risem.linear", "assemble_mimo", None, None),
    ("linear.mimo", "risem.linear", "apply_mimo", None, None),
    ("linear.mimo", "risem.linear", "MimoSystem.to_json_dict", None, None),
    ("surface.eval", "risem.surface", "ris_scattered_field", _surface_terms("ris_scattered_field"), None),
    ("surface.eval", "risem.surface", "ris_scattered_field_multi",
     _surface_terms("ris_scattered_field_multi"), None),
    ("surface.eval", "risem.surface", "ris_bistatic_rcs", _surface_terms("ris_bistatic_rcs"), None),
    ("surface.eval", "risem.surface", "ris_field_strength", _surface_terms("ris_field_strength"), None),
    ("patch.eval", "risem.patch", "patch_scattered_field", None, None),
    ("patch.eval", "risem.patch", "patch_scattered_field_multi", None, None),
    ("patch.eval", "risem.patch", "patch_bistatic_rcs", None, None),
    ("patch.eval", "risem.patch", "patch_field_strength", None, None),
    ("presets.reproduce", "risem.presets", "reproduce", None, None),
]


class _JsonProxy:
    """Stands in for the json module inside risem.cli with a wrapped dumps."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Installs the span wrappers and keeps the recorded spans in memory."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for _, mod, attr, _, _ in SPANS]
        self.layers = [layer for layer, *_ in SPANS]
        self.spans = []          # (name index, start, end, parent index, job id, count)
        self.stack = []
        self.job = -1
        self.absent = []
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, index, fn, terms, nbytes):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            count = terms(args, kwargs) if terms is not None else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.job, count)
            if nbytes is not None:
                spans[me] = spans[me][:5] + (nbytes(args, kwargs, result),)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self):
        """Replace every wrapped function; record the names that are gone."""
        self.absent = []
        for index, (_, modname, attr, terms, nbytes) in enumerate(SPANS):
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(self.names[index])
                continue
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name == "json":
                if not hasattr(module, "json"):
                    self.absent.append(self.names[index])
                    continue
                original = module.json.dumps
                proxy = _JsonProxy(module.json, self._wrap(index, original, terms, nbytes))
                self._undo.append((module, "json", module.json))
                module.json = proxy
                continue
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(self.names[index])
                continue
            wrapper = self._wrap(index, original, terms, nbytes)
            if owner_name:
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            # rebind the name in every risem module that imported it
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("risem")
                        and getattr(mod, leaf, None) is original):
                    self._undo.append((mod, leaf, original))
                    setattr(mod, leaf, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    # -- analysis ----------------------------------------------------------

    def summary(self, jobs: dict):
        """Per layer: total (outermost spans within the layer), self time,
        calls and the outermost spans' work count. Per wrapped name: total,
        self time and calls. Only spans of the given job ids count; `jobs`
        maps each to the speed factor its span times are divided by."""
        chosen = {pos: s for pos, s in enumerate(self.spans)
                  if s is not None and s[4] in jobs}
        child_time = defaultdict(float)
        for s in chosen.values():
            if s[3] >= 0:
                child_time[s[3]] += (s[2] - s[1]) / jobs[s[4]]
        layer = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
        per_name = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for pos, (name_i, start, end, parent, job, count) in chosen.items():
            lname = self.layers[name_i]
            dur = (end - start) / jobs[job]
            own = dur - child_time[pos]
            rec = layer[lname]
            rec["self_s"] += own
            rec["calls"] += 1
            p = parent
            while p >= 0 and self.layers[self.spans[p][0]] != lname:
                p = self.spans[p][3]
            if p < 0:
                rec["total_s"] += dur
                rec["count"] += count
            nrec = per_name[self.names[name_i]]
            nrec["total_s"] += dur
            nrec["self_s"] += own
            nrec["calls"] += 1
        return dict(layer), dict(per_name)

    def write(self, path):
        """A JSON header (wrapped names, absent names), then one tab-separated
        line per span: name index, start, end, parent span, job id, count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(f"{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t{s[5]}\n")
