import pickle

from sdcps.events import EventLog


def test_event_log_size_does_not_grow_with_emits():
    fresh = EventLog()
    log = EventLog()
    for i in range(10_000):
        log.emit(f"t={i} ev=send flow=0 seq={i} link=0-1")
    assert vars(log).keys() == vars(fresh).keys()
    assert len(pickle.dumps(log)) == len(pickle.dumps(fresh))
    assert log.trace_hash() != fresh.trace_hash()
