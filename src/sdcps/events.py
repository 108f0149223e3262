"""Canonical event stream and its running trace hash.

Every observable simulation event is rendered as one stable text line and
folded into a 64-bit FNV-1a digest. Equal scenarios with equal seeds yield
equal digests; the twin fidelity and determinism checks compare these. The
lines themselves are not kept, so a log's size does not grow with the run.
Rehearsal branches log to an `UntracedLog`, which folds nothing: each branch
is dropped once its counters and makespans are read, so no one reads its digest.
"""

from __future__ import annotations

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def fnv1a_64(data: bytes, state: int = FNV_OFFSET) -> int:
    h = state
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK
    return h


class EventLog:
    """The running digest of every emitted event line."""

    def __init__(self):
        self._digest = FNV_OFFSET

    def fork(self) -> "EventLog":
        twin = EventLog()
        twin._digest = self._digest
        return twin

    def emit(self, line: str) -> None:
        self._digest = fnv1a_64(line.encode() + b"\n", self._digest)

    def trace_hash(self) -> str:
        return f"{self._digest:016x}"


class UntracedLog:
    """Folds nothing: the log of a world whose digest no one reads."""

    def fork(self) -> "UntracedLog":
        return UntracedLog()

    def emit(self, line: str) -> None:
        pass

    def trace_hash(self) -> str:
        raise RuntimeError("an untraced world keeps no trace hash")
