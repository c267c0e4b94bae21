"""The repo's benchmark: six fixed workloads, verified, host-normalised.

    python3 bench/run.py                      # all six, --seconds each
    python3 bench/run.py --workload msg_faults --seed 7 --seconds 12 --trace 1
    python3 bench/run.py --agree              # two sets, PASS/FAIL per bound
    python3 bench/run.py --smoke --repeats 1  # n=300 h=150, for bench/tests

Every timed run is a fresh ``child.py`` process (set-up, peak RSS and
interpreter state are per run); with several workloads the rounds
interleave (``A B C, A B C``) so a slow phase of the host lands on all
of them.  Each child's result is verified before its numbers count, and
the command exits non-zero if any run failed.  ``--trace`` adds one
traced child per workload for the per-layer budget.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with
``--trace`` the per-layer ones, exactly as ``BENCHMARK.json`` declares
them (prefixed ``<workload>.`` when more than one workload ran).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import trace as bench_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Timed repeats never go below this, whatever ``--seconds`` allows.
MIN_REPEATS = 3
#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------


def spawn_child(workload: str, seed: int, tmpdir: str, *, smoke: bool, traced: bool) -> dict:
    """Run one child to completion; a sample dict, or ``{"error": ...}``."""
    env = dict(os.environ)
    env["REPRO_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--tmpdir", tmpdir,
        "--spawn-epoch", repr(time.time()),
    ]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s", "traced": traced}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit {proc.returncode}: {tail[0]}", "traced": traced}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no JSON result", "traced": traced}


def measure(
    names: List[str],
    seed: int,
    *,
    seconds: float,
    repeats: Optional[int],
    trace: bool,
    smoke: bool,
) -> Dict[str, List[dict]]:
    """All samples per workload, rounds interleaved across workloads.

    With ``repeats`` every workload gets exactly that many timed
    children; otherwise children are added while the workload's own
    elapsed time (traced child included) leaves room for one more
    inside ``seconds``, and never fewer than :data:`MIN_REPEATS`.
    """
    samples: Dict[str, List[dict]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    # Children run one at a time, so they can share one scratch directory.
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)

    def child(name: str, traced: bool) -> None:
        t0 = time.perf_counter()
        samples[name].append(
            spawn_child(name, seed, tmpdir, smoke=smoke, traced=traced)
        )
        spent[name] += time.perf_counter() - t0

    def wants_more(name: str, rounds: int) -> bool:
        if repeats is not None:
            return rounds < repeats
        if rounds < MIN_REPEATS:
            return True
        return spent[name] + spent[name] / len(samples[name]) <= seconds

    try:
        if trace:
            for name in names:
                child(name, traced=True)
        pending, rounds = list(names), 0
        while pending:
            for name in pending:
                child(name, traced=False)
            rounds += 1
            pending = [name for name in pending if wants_more(name, rounds)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return samples


# ---------------------------------------------------------------------------
# Reducing samples to metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarise(samples: List[dict]) -> dict:
    """Failures, end-to-end metrics and (if traced) per-layer metrics."""
    ran = [s for s in samples if "error" not in s]
    reference = ran[0]["fingerprint"] if ran else None
    good, failures = [], []
    for s in samples:
        if "error" in s:
            failures.append(s["error"])
        elif s["problems"]:
            failures.extend(s["problems"])
        elif s["fingerprint"] != reference:
            failures.append(
                f"fingerprint {s['fingerprint'][:12]} != {reference[:12]} "
                f"({'traced' if s['traced'] else 'timed'} run)"
            )
        else:
            good.append(s)
    failed = len(samples) - len(good)
    timed = [s for s in good if not s["traced"]]
    traced = next((s for s in good if s["traced"]), None)
    summary = {
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "failures": failures,
        "fingerprint": reference,
        "end_to_end": None,
        "per_layer": None,
    }
    if not timed:
        return summary
    first = timed[0]
    walls = [s["wall_s"] for s in timed]
    summary["end_to_end"] = {
        "wall_norm": statistics.median(s["wall_norm"] for s in timed),
        "setup_s": statistics.median(s["setup_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "age_sep": first["age_sep"],
    }
    summary["info"] = {
        "repeats": len(timed),
        "wall_s": [min(walls), statistics.median(walls), max(walls)],
        "cpu_s": statistics.median(s["cpu_s"] for s in timed),
        "calib_slice_s": statistics.median(s["calib_slice_s"] for s in timed),
        "tail_ratio": first["tail_ratio"],
        "ratio_err": first["ratio_err"],
    }
    summary["counts"] = first["counts"]
    if traced is not None:
        summary["info"]["traced_wall_s"] = traced["wall_s"]
        summary["per_layer"] = layer_metrics(timed, traced, summary["end_to_end"])
    return summary


def layer_metrics(timed: List[dict], traced: dict, end_to_end: dict) -> Dict[str, float]:
    """The per-layer metrics of one workload, by declared name."""
    spans = traced["spans"]
    out: Dict[str, float] = {}
    for name in bench_trace.SPAN_NAMES:
        out[f"{name}.calls"] = spans[name]["calls"]
        out[f"{name}.self_s"] = spans[name]["self_s"]
    attributed = 0.0
    for layer in bench_trace.LAYERS:
        self_s = sum(
            r["self_s"] for n, r in spans.items() if n.startswith(layer + ".")
        )
        attributed += self_s
        out[f"{layer}.share"] = self_s / traced["wall_s"]
    out["trace.unattributed_frac"] = abs(1.0 - attributed / traced["wall_s"])
    out["trace.overhead_frac"] = traced["wall_norm"] / end_to_end["wall_norm"] - 1.0

    counts = dict(timed[0]["counts"])
    wall_us = statistics.median(s["wall_s"] for s in timed) * 1e6
    succeeded = counts.pop("search.succeeded")
    search_messages = counts.pop("search.messages")
    out.update(counts)
    transitions = counts["core.promotions"] + counts["core.demotions"]
    queries = counts["search.queries"]
    out["sim.us_per_event"] = _ratio(wall_us, counts["sim.events"])
    out["overlay.us_per_connect"] = _ratio(
        spans["overlay.connect"]["self_s"] * 1e6,
        counts["overlay.connections_created"],
    )
    out["protocol.retx_frac"] = _ratio(
        counts["protocol.retransmissions"], counts["protocol.messages"]
    )
    out["core.act_frac"] = _ratio(transitions, counts["core.evaluations"])
    out["search.success_frac"] = _ratio(succeeded, queries)
    out["search.msgs_per_query"] = _ratio(search_messages, queries)
    out["search.us_per_query"] = _ratio(
        (spans["search.query"]["self_s"] + spans["search.on_query"]["self_s"]) * 1e6,
        queries,
    )
    out["telemetry.jsonl_bytes"] = timed[0]["jsonl_bytes"]
    out["experiments.shard_idle_frac"] = statistics.median(
        s["shard_idle_frac"] for s in timed
    )
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_workload(name: str, summary: dict, spec: dict) -> None:
    print(f"== {name}: {summary['attempted']} runs, {summary['failed']} failed "
          f"(failed_frac {summary['failed_frac']:.3f})")
    for failure in summary["failures"]:
        print(f"   FAILED: {failure}")
    if summary["end_to_end"] is None:
        return
    print(f"   fingerprint {summary['fingerprint']}")
    for metric in spec["end_to_end"]:
        value = summary["end_to_end"][metric["name"]]
        print(f"   {metric['name']:<14}{value:>12.4f} {metric['unit']}")
    info = summary["info"]
    lo, mid, hi = info["wall_s"]
    print(f"   (not gated) wall_s min/median/max {lo:.3f}/{mid:.3f}/{hi:.3f} "
          f"n={info['repeats']}, cpu_s {info['cpu_s']:.3f}, calib_slice_s "
          f"{info['calib_slice_s']:.5f}, tail_ratio {info['tail_ratio']:.3f}, "
          f"ratio_err {info['ratio_err']:.4f}")
    layers = summary["per_layer"]
    if layers is None:
        return
    traced_wall = info["traced_wall_s"]
    print(f"   traced run {traced_wall:.3f} s; self time per span:")
    print(f"   {'span':<34}{'calls':>10}{'self_s':>10}{'share':>8}")
    for span in bench_trace.SPAN_NAMES:
        calls, self_s = layers[f"{span}.calls"], layers[f"{span}.self_s"]
        if calls:
            print(f"   {span:<34}{calls:>10d}{self_s:>10.4f}"
                  f"{self_s / traced_wall:>8.1%}")
    print("   " + "  ".join(
        f"{layer} {layers[f'{layer}.share']:.1%}" for layer in bench_trace.LAYERS
    ))
    spans = {f"{s}{suffix}" for s in bench_trace.SPAN_NAMES for suffix in (".calls", ".self_s")}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key in sorted(layers):
        if key not in spans and not key.endswith(".share"):
            print(f"   {key:<36}{layers[key]:>16.6g} {units.get(key, '')}")


def result_line(summaries: Dict[str, dict], spec: dict, trace: bool) -> Optional[dict]:
    """The contract's final JSON object (None if a workload has no data)."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, summary in summaries.items():
        values = summary[section]
        if values is None:
            return None
        prefix = f"{name}." if len(summaries) > 1 else ""
        for metric in spec[section]:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
    failed = sum(s["failed"] for s in summaries.values())
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": failed,
        "metrics": metrics,
    }


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


def agreement(first: Dict[str, dict], second: Dict[str, dict], spec: dict) -> bool:
    """Print set-vs-set agreement per workload x metric; True if all PASS."""
    ok = True
    print(f"{'workload':<16}{'metric':<14}{'set 1':>12}{'set 2':>12}"
          f"{'rel diff':>10}{'bound':>8}  verdict")
    for name in first:
        a, b = first[name], second[name]
        if a["end_to_end"] is None or b["end_to_end"] is None:
            print(f"{name:<16}no successful timed run  FAIL")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            x, y = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            diff = abs(y - x) / abs(x)
            passed = diff <= metric["bound"]
            ok &= passed
            print(f"{name:<16}{metric['name']:<14}{x:>12.4f}{y:>12.4f}"
                  f"{diff:>10.2%}{metric['bound']:>8.0%}  "
                  f"{'PASS' if passed else 'FAIL'}")
        same = a["fingerprint"] == b["fingerprint"] and a["counts"] == b["counts"]
        ok &= same
        print(f"{name:<16}{'fingerprint+counts':<62}  {'PASS' if same else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly N timed runs per workload instead of --seconds")
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add one traced run per workload")
    parser.add_argument("--agree", action="store_true",
                        help="run two complete sets and compare them")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--smoke", action="store_true",
                        help="n=300 horizon=150 versions of the workloads")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; the benchmark runs the "
              "simulator from source", file=sys.stderr)
        return 2
    selected = args.workload or names

    def one_set() -> Dict[str, dict]:
        samples = measure(
            selected, args.seed, seconds=args.seconds, repeats=args.repeats,
            trace=bool(args.trace), smoke=args.smoke,
        )
        out = {}
        for name in selected:
            out[name] = summarise(samples[name])
            out[name]["samples"] = samples[name]
            print_workload(name, out[name], spec)
        return out

    sets = [one_set()]
    agreed = True
    if args.agree:
        sets.append(one_set())
        agreed = agreement(sets[0], sets[1], spec)
        print("agreement:", "PASS" if agreed else "FAIL")
    if args.out:
        record = {
            "seed": args.seed,
            "smoke": args.smoke,
            "host": host_info(),
            "sets": sets,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    line = result_line(sets[-1], spec, bool(args.trace))
    if line is None:
        print("error: a workload produced no verified run", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if agreed and all(s["failed"] == 0 for st in sets for s in st.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
