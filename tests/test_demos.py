"""Byte-exact stdout of every script under ``demos/``.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src`` and its
stdout is compared with ``tests/golden/demos/<name>.out``.
``PYTHONPATH=src python tests/golden_corpus.py --regenerate`` rewrites
these files together with the CLI corpus.
"""

import pytest

from golden_corpus import DEMO_OUTPUTS, DEMOS, run_demo


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    assert run_demo(demo) == (DEMO_OUTPUTS / f"{demo.stem}.out").read_bytes()
