"""Command-line interface: scenario sweeps, system export and presets.

Exit codes: 0 success, 2 parse/validation failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__
from .config import ReshapeConditioningError
from .presets import FIGURE_IDS, reproduce
from .scenario import (RandomScheme, Scenario, ScenarioError, configure_linear,
                       load_scenario, manifest_for, mimo_system, run_sweep, write_csv)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risem",
        description="Analytical scattering models for reconfigurable surfaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario file (YAML)")
        p.add_argument("--out", help="output file path (defaults to stdout "
                                     "or the scenario's output.path)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's random seed")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials for random-phase scenarios")
        return p

    add_scenario_command("sweep", "angle sweep for any geometry")
    add_scenario_command("patch-rcs", "sweep a single-patch scenario")
    add_scenario_command("array-field", "sweep a planar-array scenario")
    add_scenario_command("linear-field", "sweep a linear-array scenario")

    p = sub.add_parser("mimo", help="emit the factored linear system as JSON")
    p.add_argument("scenario")
    p.add_argument("--out")

    p = sub.add_parser("configure", help="emit configured per-cell weights")
    p.add_argument("scenario")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("reproduce", help="write a figure-reproduction preset")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", default=".", help="output directory")
    return parser


def _override_seed(scn: Scenario, seed: int | None) -> Scenario:
    if seed is None or not isinstance(scn.scheme, RandomScheme):
        return scn
    from dataclasses import replace
    return replace(scn, scheme=replace(scn.scheme, seed=seed))


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    """Indented JSON with a trailing newline; a non-finite number raises FloatingPointError.

    Sweeps do not use it: their dB columns hold -Infinity for a zero field, and
    run_sweep checks their linear columns instead.
    """
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError("the output holds non-finite numbers") from exc


def _run_sweep_command(args, expect_kind=None) -> int:
    scn = _override_seed(load_scenario(args.scenario), args.seed)
    if expect_kind is not None and scn.kind != expect_kind:
        raise ScenarioError(f"this command requires a '{expect_kind}' geometry")
    result, solution = run_sweep(scn, args.trials)
    fmt = args.format or scn.output.format
    out = args.out or scn.output.path
    if fmt == "csv":
        _emit(result.to_csv_text(), out)
    else:
        doc = {"manifest": manifest_for(scn), "sweep": result.to_json_dict()}
        if solution is not None:
            doc["reshape"] = {
                "weights": [[w.real, w.imag] for w in solution.weights],
                "residual": solution.residual,
                "rank": solution.rank,
                "discarded_fraction": solution.discarded_fraction,
            }
        _emit(json.dumps(doc, indent=2) + "\n", out)
    return EXIT_OK


# like run_sweep: non-finite output raises FloatingPointError instead of warning on the way
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_mimo(args) -> int:
    scn = load_scenario(args.scenario)
    if scn.kind != "linear":
        raise ScenarioError("'mimo' requires a linear geometry")
    if not scn.waves:
        raise ScenarioError("'mimo' needs at least one incident wave")
    ris, _ = configure_linear(scn)
    sys_ = mimo_system(ris, scn.waves, scn.observation.radius,
                       np.radians(scn.observation.theta_deg))
    doc = {"manifest": manifest_for(scn), "system": sys_.to_json_dict()}
    _emit(_json_text(doc), args.out)
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_configure(args) -> int:
    scn = _override_seed(load_scenario(args.scenario), args.seed)
    if scn.scheme is None:
        raise ScenarioError("scenario has no 'configure' section")
    ris, solution = configure_linear(scn)
    if args.format == "csv":
        buf = io.StringIO()
        write_csv(buf, ("cell", "area", "phase"), zip(range(ris.n), ris.areas, ris.phases))
        _emit(buf.getvalue(), args.out)
    else:
        doc = {"manifest": manifest_for(scn),
               "areas": [float(a) for a in ris.areas],
               "phases": [float(p) for p in ris.phases]}
        if solution is not None:
            doc["reshape"] = {"residual": solution.residual,
                              "rank": solution.rank,
                              "discarded_fraction": solution.discarded_fraction}
        _emit(_json_text(doc), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("sweep", "patch-rcs", "array-field", "linear-field"):
            expect = {"sweep": None, "patch-rcs": "patch",
                      "array-field": "planar", "linear-field": "linear"}[args.command]
            return _run_sweep_command(args, expect)
        if args.command == "mimo":
            return _run_mimo(args)
        if args.command == "configure":
            return _run_configure(args)
        if args.command == "reproduce":
            manifest = reproduce(args.figure, args.out)
            sys.stdout.write(json.dumps(manifest, indent=2) + "\n")
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except (ScenarioError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ReshapeConditioningError, np.linalg.LinAlgError,
            FloatingPointError, ZeroDivisionError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
