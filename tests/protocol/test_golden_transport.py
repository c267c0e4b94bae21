"""Message-driven runs keep their trajectory, component by component.

``golden_transport.json`` was captured while every timeout was still an
eager Event; see :mod:`tests.protocol.golden_transport` for what the two
runs cover and why cancelled queue entries are filtered.  The golden
also holds the ``family`` component that schema v10 dropped (an empty
dict in every run it was captured from) and the ``health`` component
that schema v11 dropped (``None``: neither run enables health); the
fresh runs must have exactly the other components, each unchanged.
"""

from __future__ import annotations

import json

import pytest

from tests.protocol.golden_transport import GOLDEN_PATH, GOLDEN_RUNS, run_digest

#: Components the golden was captured with that the state no longer has.
RETIRED = {"family", "health"}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_state_digests_match_the_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    fresh = run_digest(name)
    assert fresh.keys() == golden.keys() - RETIRED
    assert [c for c in fresh if fresh[c] != golden[c]] == []
