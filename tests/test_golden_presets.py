"""Figure presets against a golden capture of their outputs.

The fixture holds, for every CSV file a preset writes, its header, its row
count, the largest finite magnitude in each column and every k-th row as
printed (about 100 rows per file); for every JSON file (manifests and the
reshape exports), its full contents.

Tolerances:
  CSV values        |out - ref| <= 1e-12 * max|column| + one unit in the
                    12th significant digit of ref (the printed precision)
  non-finite values exact (the -inf dB entries of zero magnitudes)
  manifest numbers  1e-9 relative
  other JSON        1e-9 of the largest magnitude in the file (the reshape
                    weights and residual hold round-off-level values that
                    move with the summation order)
  everything else   exact (headers, row counts, strings, keys, lengths)

Regenerate the fixture only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden_presets.py --write
"""
import json
import math
import os
import sys
import tempfile


from risem.presets import FIGURE_IDS, reproduce

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_presets.json")
ROWS_KEPT = 100
CSV_REL = 1e-12
JSON_REL = 1e-9


def _summarize_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = lines[1:]
    step = max(1, len(rows) // ROWS_KEPT)
    columns = zip(*([float(v) for v in row.split(",")] for row in rows))
    col_max = [max((abs(v) for v in col if math.isfinite(v)), default=0.0)
               for col in columns]
    return {"header": lines[0].split(","), "rows": len(rows), "step": step,
            "col_max": col_max, "sample": rows[::step]}


def capture(outdir):
    """Run every preset into outdir; return the fixture document."""
    doc = {}
    for fig in FIGURE_IDS:
        manifest = reproduce(fig, outdir)
        files = {}
        for name in manifest["files"] + [f"{fig}_manifest.json"]:
            path = os.path.join(outdir, name)
            if name.endswith(".csv"):
                files[name] = _summarize_csv(path)
            else:
                with open(path, encoding="utf-8") as fh:
                    files[name] = {"json": json.load(fh)}
        doc[fig] = files
    return doc


def _printed_unit(ref):
    """One unit in the 12th significant digit of ref."""
    return 10.0 ** (math.floor(math.log10(abs(ref))) - 11) if ref != 0.0 else 0.0


def _csv_mismatches(name, got, ref):
    for key in ("header", "rows", "step"):
        if got[key] != ref[key]:
            return [f"{name}: {key} {got[key]!r} != {ref[key]!r}"]
    bad = []
    for i, (row_got, row_ref) in enumerate(zip(got["sample"], ref["sample"])):
        for j, (a, b) in enumerate(zip(row_got.split(","), row_ref.split(","))):
            out, want = float(a), float(b)
            if not math.isfinite(want):
                ok = a == b
            else:
                ok = abs(out - want) <= (CSV_REL * ref["col_max"][j]
                                         + _printed_unit(want))
            if not ok:
                bad.append(f"{name} row {i * ref['step']} {ref['header'][j]}: "
                           f"{a} != {b}")
    return bad


def _numbers(doc):
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return []
    if isinstance(doc, (int, float)):
        return [abs(doc)] if math.isfinite(doc) else []
    items = doc.values() if isinstance(doc, dict) else doc
    return [v for item in items for v in _numbers(item)]


def _json_mismatches(where, got, ref, floor=0.0):
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        ok = got == ref and type(got) is type(ref)
        return [] if ok else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} != {ref!r}"]
        if not math.isfinite(ref):
            return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
        ok = abs(got - ref) <= JSON_REL * max(abs(ref), floor)
        return [] if ok else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length or type differs"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in _json_mismatches(f"{where}[{i}]", g, r, floor)]
    if not isinstance(got, dict) or set(got) != set(ref):
        return [f"{where}: keys differ"]
    return [m for k in ref
            for m in _json_mismatches(f"{where}.{k}", got[k], ref[k], floor)]


def mismatches(got, ref):
    """Every departure of a captured document from the reference one."""
    if set(got) != set(ref):
        return [f"figures differ: {sorted(got)} != {sorted(ref)}"]
    bad = []
    for fig in ref:
        if set(got[fig]) != set(ref[fig]):
            bad.append(f"{fig}: files {sorted(got[fig])} != {sorted(ref[fig])}")
            continue
        for name, want in ref[fig].items():
            if "json" in want:
                floor = 0.0 if name.endswith("_manifest.json") else max(_numbers(want["json"]))
                bad += _json_mismatches(name, got[fig][name]["json"], want["json"], floor)
            else:
                bad += _csv_mismatches(name, got[fig][name], want)
    return bad


def test_presets_match_golden_capture(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        ref = json.load(fh)
    bad = mismatches(capture(str(tmp_path)), ref)
    assert not bad, "\n".join(bad[:20])


def test_comparison_catches_a_twelfth_digit_change():
    ref = {"fig": {"a.csv": {"header": ["x"], "rows": 1, "step": 1,
                             "col_max": [1.5], "sample": ["1.5"]},
                   "m.json": {"json": {"v": 2.0, "s": "k"}}}}
    near = {"fig": {"a.csv": dict(ref["fig"]["a.csv"], sample=["1.50000000001"]),
                    "m.json": {"json": {"v": 2.0 * (1 + 1e-10), "s": "k"}}}}
    far = {"fig": {"a.csv": dict(ref["fig"]["a.csv"], sample=["1.50000000003"]),
                   "m.json": {"json": {"v": 2.0 * (1 + 1e-8), "s": "k"}}}}
    assert mismatches(near, ref) == []
    assert len(mismatches(far, ref)) == 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        document = capture(tmp)
    with open(FIXTURE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
