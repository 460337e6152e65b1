"""README.md: its library tour runs as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _library_tour() -> str:
    """The first python code block under the README's "Library tour" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text[text.index("\n## Library tour\n"):]
    return re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)


def test_library_tour_runs_in_a_child_process(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", _library_tour()], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
