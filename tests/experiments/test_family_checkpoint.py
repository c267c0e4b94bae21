"""Checkpoint/resume across overlay families.

Two contracts ride the schema-v4 envelope:

* **bit-identical resume per family** -- the Chord family's ring-derived
  state (finger history, heal backlog) and the router's provider
  registry survive a mid-run capture exactly like the superpeer
  family's, under the same search-plane-enabled continuation test;
* **family refusal** -- a checkpoint written under one family must be
  refused under the other, by name and before the opaque config-hash
  check, in both directions.
"""

from __future__ import annotations

import pytest

from repro.experiments.checkpoint import CheckpointError, CheckpointManager
from repro.experiments.configs import SearchConfig
from repro.experiments.runner import run_experiment
from repro.overlay.family import family_names

from tests.experiments.test_checkpoint import (
    assert_runs_identical,
    interrupt_and_resume,
    small_config,
)


def family_config(family, **overrides):
    return small_config(
        family=family,
        search=SearchConfig(n_objects=400, query_rate=5.0, files_per_peer=5),
        **overrides,
    )


def _write_checkpoint(cfg, path, *, at):
    """Run ``cfg`` to ``at`` with one checkpoint there."""
    run_experiment(
        cfg.with_(horizon=at, checkpoint_every=at, checkpoint_path=str(path))
    )


class TestCrossFamilyResume:
    @pytest.mark.parametrize("family", family_names())
    def test_bit_identical_resume(self, family):
        cfg = family_config(family)
        assert_runs_identical(run_experiment(cfg), interrupt_and_resume(cfg))

    @pytest.mark.parametrize("family", family_names())
    def test_resume_point_anywhere(self, family):
        cfg = family_config(family)
        ref = run_experiment(cfg)
        for at in (25.0, 77.5):
            assert_runs_identical(ref, interrupt_and_resume(cfg, at=at))


class TestFamilyRefusal:
    @pytest.mark.parametrize(
        "written,resumed", [("superpeer", "chord"), ("chord", "superpeer")]
    )
    def test_wrong_family_refused(self, tmp_path, written, resumed):
        cfg = family_config(written)
        path = tmp_path / "run.ckpt"
        _write_checkpoint(cfg, path, at=cfg.horizon / 2)
        payload = CheckpointManager.load(str(path))
        assert payload["header"]["family"] == written
        with pytest.raises(CheckpointError, match="overlay family"):
            CheckpointManager.validate(payload, cfg.with_(family=resumed))

    def test_family_mismatch_named_before_hash(self, tmp_path):
        # The refusal message names both families -- not the opaque hash
        # mismatch the family change would also cause.
        cfg = family_config("chord")
        path = tmp_path / "run.ckpt"
        _write_checkpoint(cfg, path, at=30.0)
        payload = CheckpointManager.load(str(path))
        with pytest.raises(CheckpointError) as err:
            CheckpointManager.validate(payload, cfg.with_(family="superpeer"))
        assert "'chord'" in str(err.value)
        assert "'superpeer'" in str(err.value)

    def test_same_family_validates(self, tmp_path):
        cfg = family_config("chord")
        path = tmp_path / "run.ckpt"
        _write_checkpoint(cfg, path, at=30.0)
        payload = CheckpointManager.load(str(path))
        CheckpointManager.validate(payload, cfg)  # no raise
