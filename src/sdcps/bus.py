"""In-process topic bus standing in for MOM-style northbound/southbound wiring.

Each subscription names one exact topic; a topic may have several
subscribers, each of which receives every message on it. Delivery is
at-most-once per subscriber and totally ordered by (publish tick, publisher
id, per-publisher sequence), which makes every run of the same scenario
replay message-for-message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class BusMessage:
    topic: str
    payload: Any
    tick: int
    publisher: str
    seq: int

    def order_key(self) -> tuple:
        return (self.tick, self.publisher, self.seq)


@dataclass(eq=False)  # by identity, so a farm fork finds its own in the list
class Subscription:
    """Pull-model inbox: the owner drains `inbox` when it is scheduled."""

    topic: str
    inbox: list[BusMessage] = field(default_factory=list)

    def drain(self) -> list[BusMessage]:
        out, self.inbox = self.inbox, []
        return out


class Bus:
    def __init__(self):
        self.subscriptions: dict[str, list[Subscription]] = {}
        self._pending: list[BusMessage] = []
        self._seq: dict[str, int] = {}
        self.dropped_no_subscriber = 0
        self.published_count = 0

    def fork(self) -> "Bus":
        twin = Bus()
        twin.subscriptions = {topic: [Subscription(topic, list(sub.inbox)) for sub in subs]
                              for topic, subs in self.subscriptions.items()}
        twin._pending, twin._seq = list(self._pending), dict(self._seq)  # messages are shared
        twin.dropped_no_subscriber = self.dropped_no_subscriber
        twin.published_count = self.published_count
        return twin

    def subscribe(self, topic: str) -> Subscription:
        if not topic:
            raise ValueError("topic name must be non-empty")
        sub = Subscription(topic)
        self.subscriptions.setdefault(topic, []).append(sub)
        return sub

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
        """Move all messages published before `tick` into subscriber inboxes.

        Returns the delivered messages in their global order.
        """
        due = sorted(
            (m for m in self._pending if m.tick < tick), key=BusMessage.order_key
        )
        self._pending = [m for m in self._pending if m.tick >= tick]
        for msg in due:
            takers = self.subscriptions.get(msg.topic, ())
            if not takers:
                self.dropped_no_subscriber += 1
            for sub in takers:
                sub.inbox.append(msg)
        return due
