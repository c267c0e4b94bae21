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
form, and :func:`state_digest` hashes it per component.
:func:`write_checkpoint` adds the durable envelope: a versioned header
with a config hash (so a checkpoint cannot silently resume under a
different experiment) and an atomic write-rename.  The run loop calls it
at its barriers; :class:`CheckpointManager` reads and validates a file,
and :func:`resume_run` is the one-call entry point ``repro resume``
uses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
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
    "state_digest",
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
#: the scheduler's window layout.  v4 checkpoints
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
#: v8: an integrity digest.  The file is one text line ``repro-checkpoint
#: 8 <sha256 of the rest>`` and then the pickled payload, so a flipped
#: byte anywhere or a truncated file is refused before any state is
#: trusted (a v7 file, a bare pickle, could resume on altered bytes).
#: The payload layout is v7's; v7 files have no such line and are refused.
#: v9: one payload shape and no writer in the trajectory.  The run loop
#: writes every K at a barrier, so the payload is always ``shard_states``
#: (one entry when K = 1), never a lone single-system state; and the
#: state no longer has an entry for an in-sim writer process, because
#: writes no longer consume scheduler seqs or count as events.  v8 files
#: are refused.
#: v10: one overlay.  The header no longer records an overlay ``family``
#: and the state no longer carries a ``family`` entry (it was empty for
#: every run of the paper's super-peer overlay, the only one left).  The
#: config lost its ``family`` field with them, so every v9 config hash
#: is stale, and v9 files are refused.
#: v11: no ``health`` entry.  A run no longer judges itself: it records
#: ``sample`` and ``role`` records (carried by the ``telemetry`` entry)
#: and ``repro health`` runs the detectors over them afterwards, so the
#: detector windows, streaks and dump budget v7 added are gone.  v10
#: files are refused rather than resumed with state nothing reads.
SCHEMA_VERSION = 11
#: First field of a checkpoint file's header line.
_MAGIC = b"repro-checkpoint"

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


#: Entries every payload carries, and the entries of its header.
_PAYLOAD_KEYS = frozenset({"header", "config", "scenario", "shard_states"})
_HEADER_KEYS = frozenset(
    {"schema", "config_hash", "policy", "time", "shards"}
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
        "telemetry": ctx.telemetry.snapshot(),
    }
    return state


def state_digest(result) -> dict:
    """``{component: sha256}`` over :func:`capture_run_state`.

    Two runs on the same trajectory have equal digests component by
    component, whatever code produced them, so a refactor that must not
    move a draw proves it here.  The telemetry component leaves out its
    span aggregates: wall-clock performance data, never trajectory.

    The pickler keeps no memo, so the bytes see values, not which of
    them share one object: a resumed run holds unpickled copies of
    strings the uninterrupted run shares (event kinds, message names).
    """
    state = capture_run_state(result)
    state["telemetry"].pop("spans", None)
    digests = {}
    for name, value in state.items():
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=4)
        pickler.fast = True
        pickler.dump(value)
        digests[name] = hashlib.sha256(buf.getvalue()).hexdigest()
    return digests


def restore_run_state(result, state: dict) -> None:
    """Load captured state, RNG streams included, into a freshly wired
    (never-run) system."""
    ctx = result.ctx
    sim = ctx.sim
    sim.restore(state["sim"])
    ctx.overlay.restore(state["overlay"])
    ctx.join.restore(state["join"])
    ctx.messages.restore_state(state["messages"])
    ctx.overhead.restore(state["overhead"])
    ctx.info.restore(state["info"], sim)
    result.driver.restore(state["driver"], sim)
    try:
        result.policy.restore(state["policy"], sim)
    except ValueError as exc:  # captured under another policy
        raise CheckpointError(str(exc)) from exc
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
        # The router keeps a derived backbone snapshot, maintained by
        # listeners restore never fires.
        result.workload.router.resync()
    # Absent in pre-telemetry checkpoints; restore() itself tolerates a
    # disabled-mode snapshot (fresh buffers) and a disabled plane ignores
    # everything, so every old/new combination resumes cleanly.
    ctx.telemetry.restore(state.get("telemetry"))


def write_checkpoint(
    path: str,
    config: ExperimentConfig,
    scenario: Optional[Scenario],
    *,
    policy: str,
    time: float,
    shard_states: list,
) -> None:
    """Durably replace the file at ``path`` with one checkpoint envelope.

    The one place that knows the file format: the versioned header, the
    config and scenario, then ``shard_states`` -- one captured state per
    shard in index order, a single entry when ``config.shards == 1``.
    The pickled payload follows a header line carrying its SHA-256.  The
    file lands in a sibling temp file first and moves into place with
    :func:`os.replace`, so a crash mid-write leaves the previous
    checkpoint intact, never a torn file.
    """
    payload = {
        "header": {
            "schema": SCHEMA_VERSION,
            "config_hash": config_hash(config),
            "policy": policy,
            "time": time,
            "shards": config.shards,
        },
        "config": config,
        "scenario": scenario,
        "shard_states": shard_states,
    }
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).hexdigest().encode()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"%s %d %s\n" % (_MAGIC, SCHEMA_VERSION, digest))
        fh.write(body)
    os.replace(tmp, path)


class CheckpointManager:
    """Reading side of the envelope :func:`write_checkpoint` writes."""

    @staticmethod
    def load(path: str) -> dict:
        """Read, verify and structurally validate a checkpoint payload.

        Every way a file can fail to be a checkpoint this code wrote --
        unreadable, not a checkpoint, another schema, a digest mismatch
        (a flipped byte, a truncation), a missing entry -- raises
        :class:`CheckpointError`.  The payload's config names ``path`` as
        its ``checkpoint_path`` (hash-excluded), so a run resumed from a
        copy writes its checkpoints to the copy, never to the file the
        first run wrote.
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        line, _, body = raw.partition(b"\n")
        fields = line.split(b" ")
        if len(fields) != 3 or fields[0] != _MAGIC:
            raise CheckpointError(
                f"{path!r} is not a checkpoint file (this code reads schema "
                f"{SCHEMA_VERSION})"
            )
        schema = fields[1].decode(errors="replace")
        if schema != str(SCHEMA_VERSION):
            raise CheckpointError(
                f"checkpoint {path!r} has schema {schema!r}, "
                f"this code reads schema {SCHEMA_VERSION}"
            )
        if fields[2] != hashlib.sha256(body).hexdigest().encode():
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt: its contents do not match "
                "the digest written with them"
            )
        try:
            payload = pickle.loads(body)
        except Exception as exc:
            # The digest matched, so the bytes are the writer's: this is
            # a payload this code cannot rebuild (e.g. a class it lacks).
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc!r}") from exc
        if not (
            isinstance(payload, dict)
            and _PAYLOAD_KEYS <= payload.keys()
            and isinstance(payload["shard_states"], list)
            and _HEADER_KEYS <= payload["header"].keys()
        ):
            raise CheckpointError(f"checkpoint {path!r} is missing entries")
        payload["config"] = payload["config"].with_(checkpoint_path=str(path))
        return payload

    @staticmethod
    def validate(payload: dict, config: ExperimentConfig) -> None:
        """Refuse to restore under a trajectory-changing config diff."""
        want = payload["header"]["config_hash"]
        have = config_hash(config)
        if want != have:
            raise CheckpointError(
                "checkpoint was written under a different configuration "
                f"(hash {want[:12]}... vs {have[:12]}...); only the run "
                "name, horizon, and checkpoint cadence may differ on resume"
            )


def resume_run(
    checkpoint: str | dict,
    *,
    horizon: Optional[float] = None,
    policy_factory=None,
    telemetry=None,
    health=None,
    workers: Optional[int] = None,
):
    """Rebuild the checkpointed systems and run them to the horizon.

    ``checkpoint`` is a file path or a payload
    :meth:`CheckpointManager.load` already read.  The checkpoint's own
    config drives the wiring (optionally with a longer ``horizon``); the
    policy is reconstructed by ``policy_factory`` (default: the
    runner's) and must match the name recorded at capture time.
    ``telemetry`` overrides the checkpointed telemetry settings -- it is
    hash-excluded, so a run checkpointed without telemetry can be
    resumed with it (and vice versa); when the checkpoint carries
    telemetry state the resumed plane continues its record stream
    seamlessly.  ``health`` overrides the checkpointed health settings
    under the same hash-excluded contract.  The run loop resumes from
    the barrier the checkpoint recorded, on any ``workers`` count
    (execution-only, like everywhere else).
    """
    # The loop imports this module for the writer; import lazily to keep
    # the module graph acyclic at import time.
    from .sharded import execute

    if isinstance(checkpoint, dict):
        payload = checkpoint
    else:
        payload = CheckpointManager.load(checkpoint)
    config: ExperimentConfig = payload["config"]
    if horizon is not None:
        if horizon < payload["header"]["time"]:
            raise CheckpointError(
                f"horizon {horizon} precedes the checkpoint time "
                f"{payload['header']['time']}"
            )
        try:
            config = config.with_(horizon=horizon)
        except ValueError as exc:  # a horizon the config refuses (NaN, inf)
            raise CheckpointError(str(exc)) from exc
    if telemetry is not None:
        config = config.with_(telemetry=telemetry)
    if health is not None:
        config = config.with_(health=health)
    CheckpointManager.validate(payload, config)
    return execute(
        config,
        policy_factory,
        payload["scenario"],
        workers=workers,
        t_start=payload["header"]["time"],
        states=payload["shard_states"],
    )
