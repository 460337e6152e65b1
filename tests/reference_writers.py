"""The value-by-value CSV and JSON writers, kept as the reference for risem.scenario's.

`risem.scenario.write_csv` and `json_text` format in bulk; they must give these
bytes for every input, and raise where these raise.
"""
import json

from risem.scenario import _output


def write_csv(path, columns: dict) -> None:
    """Header row of the column names, then one row per index at 12 significant digits."""
    with _output(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(format(v, ".12g") for v in row) + "\n")


def json_text(doc) -> str:
    """Indented strict JSON and a newline; a non-finite number raises FloatingPointError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError("the output holds non-finite numbers") from exc
