"""Deterministic random-stream derivation.

Consumers never share a sequential generator. Each one owns a
:class:`StreamKey` -- a (master_seed, path) address -- and the bits it
sees are a pure function of that address: SHA-256 of the address keys a
counter-based Philox generator. Two runs with the same key produce the
same stream on any platform, whatever was drawn before, and distinct
paths give statistically independent streams.

Deriving a key is cheap. Each key keeps the SHA-256 state of its own
address, so :meth:`StreamKey.child` copies that prefix and hashes only the
new ``(label, index)`` element. A Philox stream's whole state is its
(counter, key) pair, so :func:`uniform_rows` does not build a generator
per key: it fills a ``(len(keys), width)`` matrix whose row i holds the
first ``width`` uniforms of ``keys[i]``'s stream, resetting its thread's
one generator to ``{counter: 0, key}`` before each row. Row i is therefore
bit for bit ``keys[i].generator().random(width)``, whatever the other rows
and however many keys are drawn together. Each thread has its own
generator, built by its first draw, so no two draws share one.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

_U64_MAX = 2**64 - 1
_LABEL_MAX_BYTES = 2**16 - 1  # the label length is hashed as two bytes


def _element(label: str, index: int) -> bytes:
    """The bytes one path element adds to the hashed address, after validating it."""
    if not isinstance(label, str) or not label:
        raise ValueError(f"path labels must be non-empty strings, got {label!r}")
    if not isinstance(index, int) or not 0 <= index <= _U64_MAX:
        raise ValueError(f"path indices must be 64-bit unsigned integers, got {index!r}")
    raw = label.encode("utf-8")
    if len(raw) > _LABEL_MAX_BYTES:
        raise ValueError(f"path labels must be at most {_LABEL_MAX_BYTES} UTF-8 bytes, got {len(raw)}")
    return len(raw).to_bytes(2, "little") + raw + index.to_bytes(8, "little")


def _new_generator() -> tuple:
    # a Philox, its Generator, and the state of a newly keyed Philox with its
    # arrays as lists of ints (cheaper to assign); a reset fills in "key"
    bits = np.random.Philox(key=0)
    state = bits.state
    reset = {
        **state,
        "state": {"counter": state["state"]["counter"].tolist(), "key": None},
        "buffer": state["buffer"].tolist(),
    }
    return bits, np.random.Generator(bits), reset


_thread = threading.local()  # .generator: the thread's _new_generator(), built by its first draw


@dataclass(frozen=True)
class StreamKey:
    """Address of one independent random stream under a master seed."""

    master_seed: int
    path: tuple[tuple[str, int], ...] = ()
    _prefix: object = field(init=False, repr=False, compare=False)  # SHA-256 of the address

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed <= _U64_MAX:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        prefix = hashlib.sha256(self.master_seed.to_bytes(8, "little"))
        for label, index in self.path:
            prefix.update(_element(label, index))
        object.__setattr__(self, "_prefix", prefix)

    def child(self, label: str, index: int = 0) -> "StreamKey":
        """Derive the sub-stream named (label, index)."""
        prefix = self._prefix.copy()
        prefix.update(_element(label, index))
        # skips __init__: this key's address is already validated and hashed
        key = object.__new__(StreamKey)
        vars(key).update(master_seed=self.master_seed, path=self.path + ((label, index),), _prefix=prefix)
        return key

    def _words(self) -> tuple[int, int]:
        # the first 16 digest bytes as two native-order words
        return struct.unpack_from("=2Q", self._prefix.digest())

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this key's stream."""
        return np.random.Generator(np.random.Philox(key=np.array(self._words(), dtype=np.uint64)))


def uniform_rows(keys, width: int) -> np.ndarray:
    """A ``(len(keys), width)`` matrix; row i is the first ``width`` uniforms of ``keys[i]``."""
    out = np.empty((len(keys), width))
    if not hasattr(_thread, "generator"):
        _thread.generator = _new_generator()
    bits, rng, state = _thread.generator
    for row, key in zip(out, keys):
        state["state"]["key"] = key._words()
        bits.state = state
        rng.random(out=row)
    return out
