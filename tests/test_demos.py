"""Every demo script, and every Python block of the README, runs to
completion against this checkout."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        done = subprocess.run(
            [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, f"{block}\n{done.stderr}"
