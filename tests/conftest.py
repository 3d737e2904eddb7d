"""Fixtures shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a pool it did not shut down."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"the test left child processes running: {left}"
