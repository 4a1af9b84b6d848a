import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from nandarrange import core, retention, scoring


def _peak_bytes(fn, *args):
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes


@pytest.fixture
def cpus(monkeypatch):
    """Call cpus(n) to make every pass see n usable CPUs."""
    return lambda n: monkeypatch.setattr(core, "usable_cpus", lambda: n)


@pytest.fixture
def helpers(monkeypatch):
    """Record the helper threads that scoring and retention start: ``starts``
    counts them and ``most`` is the most that were alive at once."""
    record = SimpleNamespace(starts=0, alive=0, most=0)

    @contextmanager
    def recording(work):
        record.starts += 1
        record.alive += 1
        record.most = max(record.most, record.alive)
        try:
            with core.on_helper_thread(work):
                yield
        finally:
            record.alive -= 1

    monkeypatch.setattr(scoring, "on_helper_thread", recording)
    monkeypatch.setattr(retention, "on_helper_thread", recording)
    return record
