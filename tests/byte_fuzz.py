"""Hypothesis settings and byte damage shared by the file-reader fuzz tests."""

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
