"""The fenced ``python`` blocks of README.md run as written, and each
``hydrobrackets ...`` line of its CLI examples exits 0."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CLI_LINES = re.findall(r"^hydrobrackets (.*)$", README.read_text(), re.M)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_lists_cli_examples():
    assert len(CLI_LINES) >= 9


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_0(line, tmp_path):
    # run from the repository root, as the README's paths are, with any
    # --out directory moved under tmp_path
    args = shlex.split(line)
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = str(tmp_path / args[at])
    proc = subprocess.run(
        [sys.executable, "-m", "hydrobrackets", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
