"""Hypothesis settings, byte damage and the error-message check shared by the
file-reader tests."""

import re

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# up to four (position, xor mask) pairs; a position wraps around the file
flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4)


def flip(raw, flips):
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


def assert_names_path_and_offset(exc_info, path):
    message = str(exc_info.value)
    assert str(path) in message
    assert re.search(r"at offset \d+", message), message
