"""Unit tests for the experiment registry and CLI plumbing."""

from __future__ import annotations

import math

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, all_ids, get_experiment, judge


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        """DESIGN.md section 3: every reproduced figure/table has a harness."""
        assert set(all_ids()) == {
            "figure1",
            "figure2_3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure_faults",
            "table3",
        }

    def test_lookup(self):
        exp = get_experiment("figure4")
        assert exp.paper_artifact == "Figure 4"
        assert callable(exp.run)

    def test_unknown_id_lists_known(self):
        with pytest.raises(KeyError, match="figure4"):
            get_experiment("figure99")

    def test_descriptions_non_empty(self):
        for exp in EXPERIMENTS.values():
            assert exp.description

    def test_every_claimed_row_is_banded(self):
        for exp in EXPERIMENTS.values():
            assert bool(exp.bands) == bool(exp.claim), exp.exp_id
            for lo, hi in exp.bands.values():
                assert lo <= hi


class TestJudge:
    @pytest.mark.parametrize(
        "value, verdict",
        [
            (1.5, "PASS"),
            (1.0, "PASS"),  # both edges are in the band
            (2.0, "PASS"),
            (0.999, "FAIL"),
            (2.001, "FAIL"),
            (float("nan"), "FAIL"),
            (1, "PASS"),
            (3, "FAIL"),
            (True, "PASS"),  # a bool reads as 1 ...
            (False, "FAIL"),  # ... or 0
            ("1.5", "FAIL"),
            (None, "FAIL"),
        ],
    )
    def test_verdict(self, value, verdict):
        ((metric, measured, band, got),) = judge({"m": value}, {"m": (1.0, 2.0)})
        assert (metric, band, got) == ("m", (1.0, 2.0), verdict)
        assert measured is value

    def test_missing_metric_fails(self):
        assert judge({"other": 1.5}, {"m": (1.0, 2.0)}) == [
            ("m", None, (1.0, 2.0), "FAIL")
        ]

    def test_open_ends(self):
        bands = {"lo": (-math.inf, 0.0), "hi": (0.0, math.inf)}
        rows = judge({"lo": -1e300, "hi": 1e300}, bands)
        assert [r[3] for r in rows] == ["PASS", "PASS"]
        rows = judge({"lo": math.inf, "hi": -math.inf}, bands)
        assert [r[3] for r in rows] == ["FAIL", "FAIL"]

    def test_unbanded_metrics_are_not_judged(self):
        assert judge({"m": 1.0}, {}) == []


class TestCliParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["figure6"])
        assert args.command == "figure6" and not args.full

    def test_overrides(self):
        args = build_parser().parse_args(
            ["table3", "--full", "--n", "500", "--horizon", "100", "--seed", "9"]
        )
        assert args.full and args.n == 500 and args.horizon == 100.0 and args.seed == 9

    def test_list_accepted(self):
        assert build_parser().parse_args(["list"]).command == "list"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])


class TestCliMain:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out and "table3" in out

    def test_runs_an_experiment_end_to_end(self, capsys):
        assert main(["figure6", "--n", "300", "--horizon", "250", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "shape metrics:" in out
        assert "tail_ratio_mean" in out

    def test_save_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["figure2_3", "--save", str(out)]) == 0
        capsys.readouterr()
        assert (out / "figure2_3.txt").exists()
        assert (out / "figure2_3_shape.json").exists()
        import json

        shape = json.loads((out / "figure2_3_shape.json").read_text())
        assert shape["orphans"] == 3

    def test_table3_with_custom_n(self, capsys):
        # --n runs the Table-3 sweep at that one size (with run_table3's
        # default settle and window), so just assert the command
        # completes and renders.
        assert main(["table3", "--n", "200"]) == 0
        out = capsys.readouterr().out
        assert "PAO/NLCO" in out
