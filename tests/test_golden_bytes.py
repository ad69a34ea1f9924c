"""Byte tier: the CLI writes the checked-in digests of its outputs, manifests included.

``golden_bytes.json`` holds the SHA-256 of every file of each of
``BYTE_RUNS`` (``make_golden_search.py`` says when it may be regenerated).
A change that claims bit-identity passes this unchanged.
"""

import json

import pytest

from make_golden_search import BYTE_RUNS, BYTES_PATH, digests, versions

GOLDEN = json.loads(BYTES_PATH.read_text())


@pytest.mark.parametrize("argv", BYTE_RUNS, ids=" ".join)
def test_outputs_match_golden_digests(argv):
    stored, here = {key: GOLDEN[key] for key in ("numpy", "python")}, versions()
    want = GOLDEN["runs"][" ".join(argv)]
    got = digests(argv)
    assert sorted(got) == sorted(want), f"{' '.join(argv)}: wrote {sorted(got)}, golden file lists {sorted(want)}"
    for name, digest in want.items():
        assert got[name] == digest, f"{' '.join(argv)}: {name} differs from the golden file (made with {stored}, run with {here})"


def test_golden_file_covers_exactly_the_runs():
    assert sorted(GOLDEN["runs"]) == sorted(" ".join(argv) for argv in BYTE_RUNS)
