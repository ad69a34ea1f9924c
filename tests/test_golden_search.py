"""Exact tier: the search oracle reproduces its checked-in golden results bit for bit.

``golden_search.json`` holds every sixth criterion 01, 02 and 06 search
(``make_golden_search.py`` says when it may be regenerated). A change that
claims bit-identity passes this unchanged.
"""

import json

import pytest

from make_golden_search import PATH, record, searches, versions

GOLDEN = json.loads(PATH.read_text())


@pytest.mark.parametrize("name, rho, j, cfg", [pytest.param(*case, id=case[0]) for case in searches()])
def test_search_matches_golden_bit_for_bit(name, rho, j, cfg):
    stored, here = {key: GOLDEN[key] for key in ("numpy", "python")}, versions()
    got = record(rho, j, cfg)
    for field, want in GOLDEN["searches"][name].items():
        assert got[field] == want, f"{name}: {field} differs from the golden file (made with {stored}, run with {here})"


def test_golden_file_covers_exactly_the_searches():
    assert sorted(GOLDEN["searches"]) == sorted(name for name, *_ in searches())
