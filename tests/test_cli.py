"""The ``repro`` front door: flags reach the harness or are refused, one
exit-code contract, documented command lines parse, and the run path
imports no harness it does not run."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import report
from repro.experiments.registry import EXPERIMENTS, SINGLE_RUN_OUTPUTS
from repro.protocol.faults import FaultPlan

ROOT = Path(__file__).resolve().parents[1]


def _capture_row(monkeypatch, exp_id):
    """Swap a registry row's run for a recorder of what it received."""
    calls = []

    def run(config, **sweep):
        calls.append((config, sweep))
        return None

    row = dataclasses.replace(
        EXPERIMENTS[exp_id], run=run, shape=lambda r: {}, render=lambda r: ""
    )
    monkeypatch.setitem(EXPERIMENTS, exp_id, row)
    return calls


class TestFlagsReachTheHarness:
    def test_table3_gets_the_built_config_as_base(self, monkeypatch):
        calls = _capture_row(monkeypatch, "table3")
        argv = ["table3", "--seed", "9", "--loss", "0.05"]
        argv += ["--audit-level", "actions"]
        assert main(argv) == 0
        (config, sweep), = calls
        assert config.seed == 9
        assert config.faults == FaultPlan(loss_rate=0.05, latency_scale=0.0)
        assert config.telemetry.audit_level == "actions"
        assert sweep == {}  # the bench sweep

    def test_table3_sizes_follow_n_and_full(self, monkeypatch):
        calls = _capture_row(monkeypatch, "table3")
        assert main(["table3", "--n", "200"]) == 0
        assert main(["table3", "--full"]) == 0
        assert calls[0][1] == {"sizes": (200,)}
        assert calls[1][1] == {"sizes": EXPERIMENTS["table3"].paper_sizes}
        assert calls[1][0].n == 50_000

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--n", "300", "--horizon", "200", "--seed", "5"], (300, 200.0, 5)),
            (["--scale"], (100_000, 240.0, 2004)),
            (["--full"], (50_000, 2000.0, 2004)),
        ],
    )
    def test_report_gets_the_overridden_config(self, monkeypatch, capsys, argv, want):
        seen = []
        monkeypatch.setattr(
            report,
            "generate_experiments_report",
            lambda cfg: (seen.append(cfg) or "", []),
        )
        assert main(["report", *argv]) == 0
        (cfg,) = seen
        assert (cfg.n, cfg.horizon, cfg.seed) == want


# Each entry: argv (with {tmp} for a scratch directory), expected exit code.
_EXIT_CODES = [
    (["list"], 0),
    (["stats", "{tmp}/ok.jsonl"], 0),
    (["trace", "{tmp}/ok.jsonl", "--limit", "1"], 0),
    (["health", "{tmp}/healthy.jsonl"], 0),
    (["health", "{tmp}/critical.jsonl"], 1),
    (["health", "{tmp}/ok.jsonl"], 2),  # no health plane in the run
    (["stats", "{tmp}/missing.jsonl"], 2),
    (["trace", "{tmp}/torn.jsonl"], 2),
    (["health", "{tmp}/torn.jsonl"], 2),
    (["postmortem", "{tmp}/ok.jsonl"], 2),  # not a bundle
    (["resume", "{tmp}/missing.ckpt"], 2),
    (["resume", "{tmp}/junk.ckpt"], 2),
    (["figure6", "--slo", "bogus_key=1"], 2),
    (["figure6", "--checkpoint-path", "{tmp}/x.ckpt"], 2),
    (["figure6", "--horizon", "50"], 2),  # not past the warm-up
    (["table3", "--horizon", "100"], 2),
    (["figure_faults", "--latency-scale", "0.2"], 2),
    (["figure_faults", "--loss", "0.1"], 2),
    (["report", "--save", "{tmp}/out"], 2),
    (["resume", "{tmp}/junk.ckpt", "--seed", "3"], 2),
    (["profile", "flooding", "--loss", "0.1"], 2),
    (["profile", "evaluate", "--sort", "tottime"], 2),
    (["profile", "table3", "--horizon", "100"], 2),
    # Each reads its runs' one system, so --shards is refused, not dropped.
    (["profile", "table3", "--shards", "2"], 2),
    (["figure_faults", "--shards", "2"], 2),
    (["table3", "--n", "300", "--shards", "2"], 2),
    (["figure5", "--n", "200", "--horizon", "180"], 2),  # horizon <= 2 x warm-up
    (["figure5", "--n", "200", "--horizon", "250"], 0),  # tail starts after the shift
    (["profile", "transport", "--horizon", "300"], 2),  # it settles to 200
    (["figure6", "--flight-recorder", "{tmp}/ok.jsonl/flight.json"], 2),
    # Output paths are probed before the run, not written to after it.
    (["figure6", "--n", "300", "--horizon", "150", "--audit-jsonl", "{tmp}"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--chrome-trace", "{tmp}"], 2),
    (["figure6", "--checkpoint-every", "50", "--checkpoint-path", "{tmp}"], 2),
    (["figure6", "--audit-jsonl", "{tmp}/ok.jsonl/run.jsonl"], 2),
    (["figure6", "--flight-recorder", "{tmp}"], 2),
    (["figure6", "--save", "{tmp}/ok.jsonl"], 2),
    (["resume", "{tmp}/junk.ckpt", "--chrome-trace", "{tmp}"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--seed", "-3"], 2),
    (["profile", "evaluate", "--seed", "-1"], 2),
    # A value no comparison-based check can see is still refused.
    (["figure6", "--n", "300", "--horizon", "150", "--progress", "0"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--progress", "-1"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--progress", "nan"], 2),
    (["figure6", "--n", "300", "--horizon", "nan"], 2),
    (["figure6", "--n", "300", "--horizon", "inf"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--latency-scale", "inf"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--latency-scale", "nan"], 2),
    # A worker count below 1 is refused before the run, flag or env
    # (a leading NAME=VALUE is set in the environment).
    (["figure6", "--n", "300", "--horizon", "150", "--workers", "0"], 2),
    (["figure6", "--n", "300", "--horizon", "150", "--workers", "-3"], 2),
    (["figure6", "--workers", "0", "--shards", "2"], 2),
    (["REPRO_WORKERS=abc", "figure6", "--shards", "2"], 2),
]


@pytest.fixture
def inputs(tmp_path):
    def write(name, lines):
        (tmp_path / name).write_text("".join(json.dumps(x) + "\n" for x in lines))

    header = {"kind": "run", "name": "t", "n": 10, "seed": 1, "horizon": 50.0}
    header["policy"] = "dlm"
    audit = {"seq": 0, "t": 10.0, "kind": "audit", "pid": 1, "verdict": "promote"}
    health = {**header, "health": {"eta": 40.0, "grace": 0.0, "critical_after": 1}}
    sample = {"seq": 1, "t": 20.0, "kind": "sample", "n": 410, "n_super": 10}
    sample.update(max_leaf_deg=40.0, mean_leaf_deg=40.0, transport_failures=0)
    sample.update(evaluations=0, deferrals=0, events=900)
    off_target = {**sample, "ratio": 80.0}  # twice eta: the ratio band breaks
    write("ok.jsonl", [header, audit])
    write("healthy.jsonl", [health, {**sample, "ratio": 40.0}])
    write("critical.jsonl", [health, off_target])
    (tmp_path / "torn.jsonl").write_text('{"kind":"run","name":"x"\n')
    (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint\n")
    return tmp_path


@pytest.mark.parametrize("argv, code", _EXIT_CODES)
def test_exit_code_contract(inputs, capsys, monkeypatch, argv, code):
    """0 OK; 1 for a failed run or verdict; 2 for bad usage or input,
    which is one ``error:`` line on stderr (argparse's own usage errors
    aside)."""
    if "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    assert main([a.format(tmp=inputs) for a in argv]) == code
    err = capsys.readouterr().err
    if code == 2 and argv[0] != "health":
        assert err.startswith("error: ") and err.count("\n") == 1, err


#: Rows whose harness runs more than one system: one output path would
#: hold only the last run's file, so each refuses every such flag.
_MULTI_RUN = ("figure1", "figure7", "figure8", "table3", "figure_faults")


@pytest.mark.parametrize("flag", SINGLE_RUN_OUTPUTS)
@pytest.mark.parametrize("exp_id", [*_MULTI_RUN, "report"])
def test_a_single_run_output_on_several_runs_is_refused(
    monkeypatch, tmp_path, capsys, exp_id, flag
):
    if exp_id != "report":
        _capture_row(monkeypatch, exp_id)  # a regression must not run it
    value = "50" if flag == "checkpoint_every" else str(tmp_path / "out")
    assert main([exp_id, "--" + flag.replace("_", "-"), value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1, err


def test_a_checkpoint_of_another_policy_is_refused_on_resume(tmp_path, capsys):
    from repro.baselines.preconfigured import PreconfiguredPolicy
    from repro.experiments.configs import table2_config
    from repro.experiments.runner import run_experiment

    path = str(tmp_path / "pre.ckpt")
    cfg = table2_config().with_(n=150, horizon=60.0, warmup=20.0, seed=3)
    cfg = cfg.with_(checkpoint_every=40.0, checkpoint_path=path)
    run_experiment(cfg, policy_factory=lambda c: PreconfiguredPolicy(50.0))
    assert main(["resume", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "'preconfigured'" in err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_a_non_finite_resume_horizon_is_refused(tmp_path, capsys, horizon):
    from repro.experiments.configs import table2_config
    from repro.experiments.runner import run_experiment

    path = str(tmp_path / "run.ckpt")
    cfg = table2_config().with_(n=150, horizon=60.0, warmup=20.0, seed=3)
    run_experiment(cfg.with_(checkpoint_every=40.0, checkpoint_path=path))
    assert main(["resume", path, "--horizon", horizon]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_dead_shard_worker_is_one_error_line_and_exit_1(monkeypatch, capsys):
    from repro.experiments.sharded import ShardWorkerError

    def run(config, **sweep):
        raise ShardWorkerError((1,), 9)

    row = dataclasses.replace(EXPERIMENTS["figure6"], run=run)
    monkeypatch.setitem(EXPERIMENTS, "figure6", row)
    assert main(["figure6", "--shards", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "exit code 9" in err


# -- documented command lines ------------------------------------------------

_DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "docs/ALGORITHM.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)
#: A command line: optional env assignments, then ``repro`` or
#: ``python -m repro`` (a CI step may open with ``run:``).
_COMMAND = re.compile(r"(?:run:\s+)?(?:[A-Z_]+=\S*\s+)*((?:python3? -m )?repro\s.*)")
_SHELL_STOPS = {"|", "||", "&&", ";", ">", ">>", "2>&1"}


def _doc_commands(name: str, text: str):
    """Every ``repro`` command line in a doc: lines of code blocks (all of
    a CI file) and inline code spans, backslash continuations joined."""
    text = re.sub(r"\\\n\s*", " ", text)
    if name.endswith(".yml"):
        candidates = text.splitlines()
    else:
        fenced = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
        candidates = [
            line for block in fenced.findall(text) for line in block.splitlines()
        ]
        prose = fenced.sub("", text)
        candidates += [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]
    for line in candidates:
        match = _COMMAND.match(line.strip())
        if match:
            yield match.group(1).strip()


def _argv(command: str):
    tokens = shlex.split(command, comments=True)
    while tokens[0] in ("python", "python3", "-m"):
        tokens.pop(0)
    assert tokens.pop(0) == "repro"
    for i, token in enumerate(tokens):
        if token in _SHELL_STOPS or token.startswith(("2>", ">")):
            return tokens[:i]
    return tokens


def _documented():
    found = []
    for name in _DOCS:
        for command in _doc_commands(name, (ROOT / name).read_text()):
            found.append(pytest.param(command, id=f"{name}:{command[:60]}"))
    return found


_DOCUMENTED = _documented()


def test_every_doc_documents_commands():
    files = {p.id.split(":")[0] for p in _DOCUMENTED}
    assert files == set(_DOCS)
    assert len(_DOCUMENTED) >= 40


@pytest.mark.parametrize("command", _DOCUMENTED)
def test_documented_command_parses(command):
    build_parser().parse_args(_argv(command))


@pytest.mark.parametrize(
    "command",
    [
        "repro figur6 --n 400",
        "python -m repro figure6 --horizn 150",
        "repro profile repair -n 500",
        "repro --resume run.ckpt",
    ],
)
def test_a_misspelt_command_fails_to_parse(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args(_argv(command))


def test_run_path_imports_no_harness():
    """A bench child or a worker imports the runner and nothing it does
    not run: no figure, sweep, report or registry, and no process pool."""
    code = (
        "import sys, repro.experiments.runner; "
        "print('\\n'.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    harnesses = ("figure", "table3", "sweeps", "tournament", "replication")
    harnesses += ("warmstart", "report", "registry")
    loaded = [
        m
        for m in out
        if m.startswith(tuple(f"repro.experiments.{h}" for h in harnesses))
        or m.startswith("concurrent.futures")
    ]
    assert loaded == []
