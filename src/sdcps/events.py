"""Canonical event stream and its running trace hash.

Every observable simulation event is rendered as one stable text line and
folded into a 64-bit FNV-1a digest. Equal scenarios with equal seeds yield
equal digests; the twin fidelity and determinism checks compare these. The
lines themselves are not kept, so a log's size does not grow with the run.
A rehearsal untraces the log of the twin it spends (`EventLog.untrace`):
from then on the log, and any fork of it, folds nothing and has no hash.
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
    """The running digest of every emitted event line, or None once untraced."""

    def __init__(self):
        self._digest = FNV_OFFSET

    def fork(self) -> "EventLog":
        twin = EventLog()
        twin._digest = self._digest
        return twin

    def untrace(self) -> None:
        self._digest = None

    def emit(self, line: str) -> None:
        if self._digest is not None:
            self._digest = fnv1a_64(line.encode() + b"\n", self._digest)

    def trace_hash(self) -> str:
        if self._digest is None:
            raise RuntimeError("an untraced world keeps no trace hash")
        return f"{self._digest:016x}"
