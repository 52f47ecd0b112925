"""Byte-exact stdout of every script under ``demos/``.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src`` and its
stdout is compared with ``tests/golden/demos/<name>.out``.
``python tests/test_golden_cli.py --regenerate`` rewrites these files
together with the CLI corpus.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUTS = ROOT / "tests" / "golden" / "demos"


def run_demo(path: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    assert run_demo(demo) == (OUTPUTS / f"{demo.stem}.out").read_bytes()


def regenerate():
    OUTPUTS.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (OUTPUTS / f"{demo.stem}.out").write_bytes(run_demo(demo))
