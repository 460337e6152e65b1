#!/usr/bin/env python3
"""Regenerate every bundled figure preset into one output directory.

Each preset writes its CSV/JSON artifacts plus a manifest recording the
parameters and numerical checks. Usage:

    python scripts/reproduce_all.py --out results/
    python scripts/reproduce_all.py --out results/ --only fig6 fig7b
"""
import argparse
import sys
import time

from risem.presets import FIGURE_IDS, reproduce
from risem.scenario import write_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results",
                        help="output directory (created if missing)")
    parser.add_argument("--only", nargs="*", choices=FIGURE_IDS, default=None,
                        help="subset of figure ids to regenerate")
    args = parser.parse_args(argv)

    figures = args.only or FIGURE_IDS
    for fig in figures:
        start = time.perf_counter()
        manifest = reproduce(fig, args.out)
        elapsed = time.perf_counter() - start
        print(f"{fig}: {', '.join(manifest['files'])} ({elapsed:.1f}s)")
        write_json(None, manifest["checks"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
