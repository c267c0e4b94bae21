"""Deterministic, named random-number streams.

Every source of randomness in a simulation (arrival process, lifetime
sampling, neighbor selection, query workload, ...) draws from its own
``numpy.random.Generator`` derived from a single root seed and a stream
*name*.  This gives two properties the experiments rely on:

* **Reproducibility** -- a run is a pure function of its root seed.
* **Isolation** -- adding draws to one subsystem (say, enabling query
  tracing) does not perturb the sample paths of the others, so an ablation
  changes only what it intends to change.

Stream derivation hashes the name into ``numpy.random.SeedSequence``'s
``spawn_key`` mechanism, which is the documented way to build independent
child streams.

Worker derivation (the parallel-sweep contract)
-----------------------------------------------

Reproducibility is what makes the parallel sweep engine
(:mod:`repro.experiments.parallel`) free of coordination: a worker
process receives only an integer root seed (inside its config spec) and
rebuilds the exact stream family locally --

* root: ``SeedSequence(entropy=seed)``;
* per-stream offset: ``SeedSequence(entropy=seed,
  spawn_key=(crc32(name),))``, one child per stream *name*.

No generator state is ever pickled or shared between processes, and the
derivation depends only on ``(seed, name)``, so a run executed in a
worker is bit-identical to the same seed run serially in the parent.
Harnesses that need distinct runs therefore vary the *seed* (e.g.
``cfg.with_(seed=s)`` per replication seed, ``seed + n`` per Table-3
size) and never hand out generators across the process boundary.

Draw-ahead streams
------------------

A stream read on a hot path (the transport's drop and latency scalars,
the bootstrap stream's bounded integers) can be read through a
:class:`DrawAhead` (:meth:`RngStreams.prefetch`): one NumPy call per
block instead of one per request.  By NumPy's partition invariance
(``draw(a + b)`` is ``draw(a)`` then ``draw(b)``, values and final
state; pinned in ``tests/util/test_indexed_set.py``) the values are the
per-call stream's, and one settle rule keeps the generator there too: a
request at another bound, any other use of the generator and
:meth:`RngStreams.snapshot` first rewind to the state saved before the
block and redraw what was handed out (DESIGN.md §8).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

__all__ = ["RngStreams", "DrawAhead", "PREFETCH_BLOCK"]

#: Values a :class:`DrawAhead` takes per NumPy call.
PREFETCH_BLOCK = 256


class DrawAhead:
    """The values of a partition-invariant ``draw(gen, n)`` handed out
    from a block drawn ahead: one at a time by :meth:`next`, or as
    ``gen.integers(bound, size)`` by :meth:`integers`.  Any other
    attribute is the generator's, read after a :meth:`settle`."""

    __slots__ = ("gen", "draw", "block", "pos", "state", "bound")

    def __init__(
        self, gen: np.random.Generator, draw: Optional[Callable] = None
    ) -> None:
        self.gen = gen
        self.draw = draw
        self.drop()

    def next(self) -> float:
        pos = self.pos
        block = self.block
        if pos == len(block):
            self.state = self.gen.bit_generator.state
            block = self.block = self.draw(self.gen, PREFETCH_BLOCK).tolist()
            pos = 0
        self.pos = pos + 1
        return block[pos]

    def integers(self, bound: int, size: Optional[int] = None):
        """``gen.integers(bound, size)`` (a list for a ``size``).  A new
        bound settles the old one's block and draws alone: most bounds
        see one request, so a block starts with the second (DESIGN.md §8)."""
        if bound != self.bound:
            self.settle()
            self.bound = bound
            self.draw = lambda gen, n: gen.integers(bound, size=n)
            return self.draw(self.gen, size).tolist()
        if size is None:
            return self.next()
        pos = self.pos
        block = self.block
        end = pos + size
        if end <= len(block):
            self.pos = end
            return block[pos:end]
        # Past the block: its tail, then the head of the next one.
        out = block[pos:]
        self.state = self.gen.bit_generator.state
        self.pos = end = size - len(out)
        block = self.block = self.draw(self.gen, max(PREFETCH_BLOCK, end)).tolist()
        return out + block[:end]

    def settle(self) -> None:
        """Rewind to the block start and redraw what was handed out:
        the generator ends where per-call draws would leave it."""
        if self.pos < len(self.block):
            self.gen.bit_generator.state = self.state
            if self.pos:
                self.draw(self.gen, self.pos)
        self.drop()

    def drop(self) -> None:
        """Forget the block and its bound (void after a restore)."""
        self.block: List = []
        self.bound, self.pos = None, 0
        #: The generator state just before ``block`` was drawn.
        self.state: Optional[dict] = None

    def __getattr__(self, name: str):
        # choice, random, bit_generator, ...: the generator as per-call
        # draws leave it.
        self.settle()
        return getattr(self.gen, name)


class RngStreams:
    """Factory and cache of named child generators under one root seed.

    Each stream derives from ``spawn_key=(crc32(name),)`` under the root
    seed, so a name always maps to the same sample path.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._ahead: Dict[str, DrawAhead] = {}

    @property
    def seed(self) -> int:
        """The root seed this collection was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream within one
        :class:`RngStreams` instance, and to an identically-seeded stream
        in any other instance built from the same root seed.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        gen = self._streams.get(name)
        if gen is None:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def prefetch(self, name: str, draw: Optional[Callable] = None) -> DrawAhead:
        """Stream ``name`` read through a :class:`DrawAhead` of ``draw``
        (``None``: of its bounded integers), one per stream: a second
        would draw past the first's block."""
        if name in self._ahead:
            raise ValueError(f"stream {name!r} is already prefetched")
        self._ahead[name] = DrawAhead(self.get(name), draw)
        return self._ahead[name]

    def snapshot(self) -> dict:
        """Per-stream ``bit_generator.state`` dicts, in creation order,
        with every draw-ahead buffer settled first."""
        for ahead in self._ahead.values():
            ahead.settle()
        return {
            name: gen.bit_generator.state
            for name, gen in self._streams.items()
        }

    def restore(self, state: dict) -> None:
        """Set each named stream's state in place.

        Mutating ``bit_generator.state`` (rather than swapping Generator
        objects) keeps every cached generator reference held by the wired
        components valid.  Streams named in ``state`` but not yet created
        by the re-wired system are instantiated first; streams the wiring
        created that the snapshot never drew from keep their fresh
        derivation, which is identical by construction.  Draw-ahead
        buffers are emptied: their blocks came from the old states.
        """
        for ahead in self._ahead.values():
            ahead.drop()
        for name, bg_state in state.items():
            self.get(name).bit_generator.state = bg_state

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"
