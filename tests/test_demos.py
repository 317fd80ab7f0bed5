"""Every demo script and the README quickstart run against the source tree."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=REPO, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_prints_its_comments():
    # Each print line of the README's Library quickstart ends in a comment
    # that is exactly the line it writes.
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = [
        line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert len(expected) == 5
    assert out.getvalue().splitlines() == expected
