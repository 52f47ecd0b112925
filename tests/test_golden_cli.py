"""Byte-exact CLI outputs on the fixed corpus of ``golden_corpus.py``.

Each case's exit code, stdout and plot files must equal its golden files.
After an intended output change, regenerate them (and the demo outputs,
see test_demos.py) with

    PYTHONPATH=src python tests/golden_corpus.py --regenerate

and review the diff.
"""

import json

import pytest

from golden_corpus import CASES, EXAMPLES, OUTPUTS, PARTITIONS, mismatches


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert mismatches(case, tmp_path) == []


def _reject(constant):
    raise ValueError(f"{constant} is not a JSON number")


@pytest.mark.parametrize("case", sorted(c for c, argv in CASES.items()
                                        if (argv[0] != "catalog" or "json" in argv)
                                        and (OUTPUTS / f"{c}.out").stat().st_size))
def test_json_output_is_strict(case):
    # a failed root iteration writes only its error line, to stderr
    # json.loads alone accepts NaN and Infinity, which RFC 8259 does not
    json.loads((OUTPUTS / f"{case}.out").read_text(), parse_constant=_reject)


def test_corpus_covers_every_example_and_partition():
    from reference import partitions
    from tropeig.models import example_names

    assert EXAMPLES == example_names()
    assert PARTITIONS == [",".join(map(str, p)) for n in (2, 3, 4) for p in partitions(n)]
