"""Fixtures shared by every test module."""

import multiprocessing
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a pool it did not shut down."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"the test left child processes running: {left}"


@pytest.fixture
def traced_peak():
    """The peak of the allocations traced while a call runs, in bytes (tracemalloc)."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
