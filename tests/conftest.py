import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live child process behind."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"
