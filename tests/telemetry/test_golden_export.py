"""Exported JSONL keeps its bytes, record shape by record shape.

``golden_export.json`` was captured while every record line was still
one ``JSONEncoder.encode(record_as_dict(r))`` call; see
:mod:`tests.telemetry.golden_export` for what the three runs cover.
"""

from __future__ import annotations

import json

import pytest

from tests.telemetry.golden_export import GOLDEN_PATH, GOLDEN_RUNS, export_digest


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_export_bytes_match_the_golden(name):
    assert export_digest(name) == json.loads(GOLDEN_PATH.read_text())[name]
