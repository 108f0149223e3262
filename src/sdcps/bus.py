"""In-process topic bus standing in for MOM-style northbound/southbound wiring.

Each topic has at most one subscriber, and a subscription names one exact
topic. Delivery hands the due messages back to the caller, at most once
each, totally ordered by (publish tick, publisher id, per-publisher
sequence), which makes every run of the same scenario replay
message-for-message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import DuplicateId


@dataclass(frozen=True)
class BusMessage:
    topic: str
    payload: Any
    tick: int
    publisher: str
    seq: int

    def order_key(self) -> tuple:
        return (self.tick, self.publisher, self.seq)


class Bus:
    def __init__(self):
        self.topics: frozenset[str] = frozenset()  # the subscribed ones; forks share it
        self._pending: list[BusMessage] = []
        self._seq: dict[str, int] = {}
        self.dropped_no_subscriber = 0
        self.published_count = 0

    def fork(self) -> "Bus":
        twin = Bus()
        twin.topics = self.topics
        twin._pending, twin._seq = list(self._pending), dict(self._seq)  # messages are shared
        twin.dropped_no_subscriber = self.dropped_no_subscriber
        twin.published_count = self.published_count
        return twin

    def subscribe(self, topic: str) -> None:
        if not topic:
            raise ValueError("topic name must be non-empty")
        if topic in self.topics:
            raise DuplicateId(f"topic {topic} already has a subscriber")
        self.topics |= {topic}

    def publish(self, topic: str, payload: Any, tick: int, publisher: str) -> BusMessage:
        if not topic:
            raise ValueError("topic name must be non-empty")
        seq = self._seq.get(publisher, 0)
        self._seq[publisher] = seq + 1
        msg = BusMessage(topic, payload, tick, publisher, seq)
        self._pending.append(msg)
        self.published_count += 1
        return msg

    def deliver_up_to(self, tick: int) -> list[BusMessage]:
        """Take every message published before `tick` off the bus; return
        those on a subscribed topic in their global order and count the
        rest as dropped."""
        due = sorted(
            (m for m in self._pending if m.tick < tick), key=BusMessage.order_key
        )
        self._pending = [m for m in self._pending if m.tick >= tick]
        delivered = [m for m in due if m.topic in self.topics]
        self.dropped_no_subscriber += len(due) - len(delivered)
        return delivered
