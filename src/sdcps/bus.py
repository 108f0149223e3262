"""In-process topic bus standing in for MOM-style northbound/southbound wiring.

Each topic has at most one subscriber, and a subscription names one exact
topic. Delivery hands the due messages back to the caller, at most once
each, in publish-tick order and, within a tick, in publish order, so every
run of the same scenario replays message-for-message. The farm decides the
order in which each controller takes its messages.
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


class Bus:
    def __init__(self):
        self.topics: frozenset[str] = frozenset()  # the subscribed ones; forks share it
        self._pending: list[BusMessage] = []
        self.dropped_no_subscriber = 0
        self.published_count = 0

    def fork(self) -> "Bus":
        twin = Bus()
        twin.topics = self.topics
        twin._pending = list(self._pending)  # messages are shared
        twin.dropped_no_subscriber = self.dropped_no_subscriber
        twin.published_count = self.published_count
        return twin

    def subscribe(self, topic: str) -> None:
        if not topic:
            raise ValueError("topic name must be non-empty")
        if topic in self.topics:
            raise DuplicateId(f"topic {topic} already has a subscriber")
        self.topics |= {topic}

    def publish(self, topic: str, payload: Any, tick: int) -> BusMessage:
        if not topic:
            raise ValueError("topic name must be non-empty")
        msg = BusMessage(topic, payload, tick)
        self._pending.append(msg)
        self.published_count += 1
        return msg

    def deliver_up_to(self, tick: int) -> list[BusMessage]:
        """Take every message published before `tick` off the bus; return
        those on a subscribed topic in tick order, each tick's in publish
        order, and count the rest as dropped."""
        due = sorted((m for m in self._pending if m.tick < tick), key=lambda m: m.tick)
        self._pending = [m for m in self._pending if m.tick >= tick]
        delivered = [m for m in due if m.topic in self.topics]
        self.dropped_no_subscriber += len(due) - len(delivered)
        return delivered
