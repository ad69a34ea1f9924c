"""Exact and contract tiers: the search oracle reproduces its checked-in golden results.

``golden_search.json`` holds every sixth criterion 01, 02 and 06 search, bit
for bit (exact tier), and ``golden_contract.json`` each one's best value
(contract tier), which a plain regeneration of the exact tier leaves as it is
(``make_golden_search.py`` says when each may be regenerated). A change that
claims bit-identity passes both unchanged. Both tiers read one run of each search.
"""

import functools
import json

import pytest

from make_golden_search import CONTRACT_ATOL, CONTRACT_PATH, PATH, best, record, searches, versions

GOLDEN = json.loads(PATH.read_text())
CONTRACT = json.loads(CONTRACT_PATH.read_text())
SEARCHES = {name: (rho, j, cfg) for name, rho, j, cfg in searches()}


@functools.cache
def _run(name: str) -> dict:
    """The stored fields of one search, run once for both tiers."""
    return record(*SEARCHES[name])


def _made_with(golden) -> str:
    """The versions that made a golden file and those of this run, for a failure message."""
    stored = {key: golden[key] for key in ("numpy", "python")}
    return f"made with {stored}, run with {versions()}"


@pytest.mark.parametrize("name", SEARCHES)
def test_search_matches_golden_bit_for_bit(name):
    got = _run(name)
    for field, want in GOLDEN["searches"][name].items():
        assert got[field] == want, f"{name}: {field} differs from the golden file ({_made_with(GOLDEN)})"


@pytest.mark.parametrize("name", SEARCHES)
def test_best_value_keeps_its_contract(name):
    got, want = best(_run(name)), CONTRACT["best"][name]
    assert abs(got - want) <= CONTRACT_ATOL, f"{name}: best value {got!r}, contract {want!r} ({_made_with(CONTRACT)})"


def test_golden_file_covers_exactly_the_searches():
    assert sorted(GOLDEN["searches"]) == sorted(SEARCHES)
    assert sorted(CONTRACT["best"]) == sorted(SEARCHES)
