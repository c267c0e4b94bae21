"""Checkpoint/resume: full-run snapshots at event boundaries.

A checkpoint captures the complete :class:`SimulationState` of a wired
run -- scheduler queue and RNG streams, overlay topology and knowledge
caches, in-flight protocol requests, churn progress, accumulated metrics,
and policy state -- as plain data, so a fresh process can rebuild the
system from the same config and continue **bit-identically**: every
series sample, counter, and random draw after the resume point matches
the uninterrupted run exactly.

The split of responsibilities is deliberate:

* **State** (this module captures): anything that evolves as events
  fire.  Serialized by value; scheduled events are cross-referenced by
  their scheduler ``seq``.
* **Wiring** (the composition root re-derives): listeners, handler
  registrations, free-list pools, derived indexes.  Rebuilding these
  from config on resume -- rather than pickling bound methods and
  closures -- keeps checkpoints small, version-tolerant, and honest
  about what the state actually is.

:func:`capture_run_state` / :func:`restore_run_state` convert a wired
:class:`~repro.experiments.runner.RunResult` to/from that plain-data
form.  :class:`CheckpointManager` adds the durable envelope: a versioned
header with a config hash (so a checkpoint cannot silently resume under
a different experiment), atomic write-rename, and refusal on mismatch.
:func:`resume_run` is the one-call entry point the CLI's ``--resume``
uses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from typing import Optional

from ..churn.scenarios import Scenario
from .configs import ExperimentConfig

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "capture_run_state",
    "restore_run_state",
    "config_hash",
    "resume_run",
    "write_checkpoint",
]

#: Bumped whenever the captured state layout changes incompatibly.
#: Restores refuse checkpoints written under a different schema.
#: v3: DLM ``pending`` is the ordered drain list of the coalesced
#: DLM_EVALUATE event (was a sorted set of per-pid events).
#: v4: the header records the overlay ``family`` and the state carries
#: a ``family`` entry (ring-derived state for Chord, empty for
#: superpeer); restores refuse a family mismatch outright.
#: v5: the scheduler queue is canonical -- sorted by ``(time, seq)``,
#: with unmaterialized lazy deaths folded in from the store columns and
#: cancelled lazy tombstones dropped -- so the bytes do not depend on
#: the calendar's window layout.  v4 checkpoints
#: serialized the raw heap array (arbitrary sibling order, tombstones
#: included), so they are refused rather than reinterpreted.
#: v6: the header records the logical shard count; sharded runs write
#: one canonical file whose ``shard_states`` list (shard-index order,
#: captured at a window barrier after mailbox routing + delivery, so no
#: message is in transit) replaces the classic single ``state`` entry.
#: The classic state layout is unchanged, but the config gained the
#: trajectory-determining ``shards``/``shard_link_latency`` fields, so
#: every v5 hash is stale and v5 files are refused rather than guessed
#: at.
#: v7: the state carries a ``health`` entry (detector windows, breach
#: streaks, flap transition history, flight-dump budget) so a resumed
#: run's ``health.*`` record stream continues bit-identically.  The
#: config gained the hash-excluded ``health`` field; v6 files lack the
#: entry and are refused rather than resumed with silently reset
#: detectors.
SCHEMA_VERSION = 7

#: Config fields that never affect the simulated trajectory, excluded
#: from the compatibility hash: the run's label, how far it runs,
#: where/how often checkpoints are written, and the observe-only
#: telemetry/health planes.
_HASH_EXCLUDED_FIELDS = frozenset(
    {
        "name",
        "horizon",
        "checkpoint_every",
        "checkpoint_path",
        "telemetry",
        "health",
    }
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or safely restored."""


def config_hash(config: ExperimentConfig) -> str:
    """Digest of every trajectory-determining config field.

    Two configs with equal hashes produce identical event sequences up
    to any horizon, so a checkpoint from one may resume under the other
    (e.g. the same run extended to a longer horizon).
    """
    payload = dataclasses.asdict(config)
    for field in _HASH_EXCLUDED_FIELDS:
        payload.pop(field, None)
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def capture_run_state(result) -> dict:
    """Snapshot every stateful component of a wired run, as plain data.

    The entry order is the restore order; components later in the list
    may reference scheduler seqs, so the simulator always restores
    first (rebuilding the seq -> event map the others re-link through).
    """
    ctx = result.ctx
    state = {
        "sim": ctx.sim.snapshot(),
        "overlay": ctx.overlay.snapshot(),
        "join": ctx.join.snapshot(),
        "family": ctx.family.snapshot(),
        "messages": ctx.messages.snapshot_state(),
        "overhead": ctx.overhead.snapshot(),
        "info": ctx.info.snapshot(),
        "driver": result.driver.snapshot(),
        "policy": result.policy.snapshot(),
        "maintenance_process": result.maintenance_process.snapshot(),
        "sampler": result.sampler.snapshot(),
        "workload": None if result.workload is None else result.workload.snapshot(),
        "directory": (
            None if result.directory is None else result.directory.snapshot()
        ),
        "checkpoint_process": (
            None
            if result.checkpoint_process is None
            else result.checkpoint_process.snapshot()
        ),
        "telemetry": ctx.telemetry.snapshot(),
        "health": (
            None
            if getattr(result, "health_monitor", None) is None
            else result.health_monitor.snapshot()
        ),
    }
    return state


def restore_run_state(result, state: dict, *, restore_rng: bool = True) -> None:
    """Load captured state into a freshly wired (never-run) system.

    ``restore_rng=False`` keeps the fresh system's own RNG streams --
    the warm-start path, where forks deliberately diverge from the
    prefix (the fork runs in a different RNG domain so its draws are
    independent of the checkpointed streams by construction).
    """
    ctx = result.ctx
    sim = ctx.sim
    sim.restore(state["sim"], restore_rng=restore_rng)
    ctx.overlay.restore(state["overlay"])
    ctx.join.restore(state["join"])
    # After the overlay: family state (e.g. the Chord ring) is rebuilt
    # from the restored topology plus its checkpointed extras.
    ctx.family.restore(state["family"])
    ctx.messages.restore_state(state["messages"])
    ctx.overhead.restore(state["overhead"])
    ctx.info.restore(state["info"], sim)
    result.driver.restore(state["driver"], sim)
    result.policy.restore(state["policy"], sim)
    result.maintenance_process.restore(state["maintenance_process"], sim)
    result.sampler.restore(state["sampler"], sim)
    if (result.workload is None) != (state["workload"] is None):
        raise CheckpointError(
            "checkpoint and restored config disagree about the search plane"
        )
    if result.workload is not None:
        result.workload.restore(state["workload"], sim)
    if result.directory is not None and state["directory"] is not None:
        result.directory.restore(state["directory"])
    if result.workload is not None:
        # Routers keep derived lookup state (backbone snapshot, provider
        # registry) maintained by listeners restore never fires.
        result.workload.router.resync()
    if result.checkpoint_process is not None and state["checkpoint_process"]:
        result.checkpoint_process.restore(state["checkpoint_process"], sim)
    # Absent in pre-telemetry checkpoints; restore() itself tolerates a
    # disabled-mode snapshot (fresh buffers) and a disabled plane ignores
    # everything, so every old/new combination resumes cleanly.
    ctx.telemetry.restore(state.get("telemetry"))
    # Same tolerance for the health plane: a monitor wired at resume
    # time adopts the captured detector state when present, otherwise
    # starts fresh; captured state without a wired monitor (health
    # switched off on resume) is simply dropped.
    monitor = getattr(result, "health_monitor", None)
    if monitor is not None:
        monitor.restore(state.get("health"))


def write_checkpoint(
    path: str,
    config: ExperimentConfig,
    scenario: Optional[Scenario],
    *,
    policy: str,
    time: float,
    **body,
) -> None:
    """Durably replace the file at ``path`` with one checkpoint envelope.

    The one place that knows the file format: the versioned header, the
    config and scenario, then the caller's ``body`` -- ``state=`` for a
    classic run, ``shard_states=`` (index order) for a sharded one; the
    header's ``shards`` count says which to expect.  The payload lands
    in a sibling temp file first and moves into place with
    :func:`os.replace`, so a crash mid-write leaves the previous
    checkpoint intact, never a torn file.
    """
    payload = {
        "header": {
            "schema": SCHEMA_VERSION,
            "config_hash": config_hash(config),
            "family": config.family,
            "policy": policy,
            "time": time,
            "shards": config.shards,
        },
        "config": config,
        "scenario": scenario,
        **body,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


class CheckpointManager:
    """Durable checkpoint files with a versioned, validated envelope."""

    def __init__(
        self,
        path: str,
        config: ExperimentConfig,
        *,
        scenario: Optional[Scenario] = None,
    ) -> None:
        self.path = path
        self.config = config
        self.scenario = scenario
        self.writes = 0

    # -- writing --------------------------------------------------------------
    def write(self, result) -> None:
        """Capture ``result`` and durably replace the file at ``path``."""
        write_checkpoint(
            self.path,
            self.config,
            self.scenario,
            policy=result.policy.name,
            time=result.ctx.sim.now,
            state=capture_run_state(result),
        )
        self.writes += 1

    # -- reading --------------------------------------------------------------
    @staticmethod
    def load(path: str) -> dict:
        """Read and structurally validate a checkpoint payload."""
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        header = payload.get("header") if isinstance(payload, dict) else None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path!r} is not a checkpoint file")
        if header.get("schema") != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has schema {header.get('schema')!r}, "
                f"this code reads schema {SCHEMA_VERSION}"
            )
        return payload

    @staticmethod
    def validate(payload: dict, config: ExperimentConfig) -> None:
        """Refuse to restore under a trajectory-changing config diff.

        The overlay family is checked first and by name: resuming a
        Chord checkpoint under the superpeer family (or vice versa)
        would rebuild the wrong structure around the restored topology,
        so the refusal names the families instead of burying the
        mismatch in the opaque config hash.
        """
        captured_family = payload["header"].get("family")
        if captured_family != config.family:
            raise CheckpointError(
                f"checkpoint was written under overlay family "
                f"{captured_family!r} but this run uses {config.family!r}; "
                "a checkpoint can only resume under its own family"
            )
        want = payload["header"]["config_hash"]
        have = config_hash(config)
        if want != have:
            raise CheckpointError(
                "checkpoint was written under a different configuration "
                f"(hash {want[:12]}... vs {have[:12]}...); only the run "
                "name, horizon, and checkpoint cadence may differ on resume"
            )


def resume_run(
    path: str,
    *,
    horizon: Optional[float] = None,
    policy_factory=None,
    telemetry=None,
    health=None,
):
    """Rebuild the checkpointed system and run it to the horizon.

    The checkpoint's own config drives the wiring (optionally with a
    longer ``horizon``); the policy is reconstructed by
    ``policy_factory`` (default: the runner's) and must match the name
    recorded at capture time.  ``telemetry`` overrides the checkpointed
    telemetry settings -- it is hash-excluded, so a run checkpointed
    without telemetry can be resumed with it (and vice versa); when the
    checkpoint carries telemetry state the resumed plane continues its
    record stream seamlessly.  ``health`` overrides the checkpointed
    health settings under the same hash-excluded contract.
    """
    # Runner imports this module for the periodic writer; import lazily
    # to keep the module graph acyclic at import time.
    from .runner import default_policy_factory, run_experiment

    payload = CheckpointManager.load(path)
    config: ExperimentConfig = payload["config"]
    if horizon is not None:
        if horizon < payload["header"]["time"]:
            raise CheckpointError(
                f"horizon {horizon} precedes the checkpoint time "
                f"{payload['header']['time']}"
            )
        config = config.with_(horizon=horizon)
    if telemetry is not None:
        config = config.with_(telemetry=telemetry)
    if health is not None:
        config = config.with_(health=health)
    CheckpointManager.validate(payload, config)
    if "shard_states" in payload:
        # A sharded (schema-v6, shards > 1) checkpoint: the window loop
        # resumes from the recorded barrier, under any worker count.
        from .sharded import resume_sharded_run

        return resume_sharded_run(
            payload, config, policy_factory=policy_factory
        )
    return run_experiment(
        config,
        policy_factory=policy_factory or default_policy_factory,
        scenario=payload["scenario"],
        resume_from=payload,
    )
