"""Message-driven runs keep their trajectory, component by component.

``golden_transport.json`` was captured while every timeout was still an
eager Event; see :mod:`tests.protocol.golden_transport` for what the two
runs cover and why cancelled queue entries are filtered.
"""

from __future__ import annotations

import json

import pytest

from tests.protocol.golden_transport import GOLDEN_PATH, GOLDEN_RUNS, run_digest


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_state_digests_match_the_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    fresh = run_digest(name)
    assert [c for c in golden if fresh[c] != golden[c]] == []
