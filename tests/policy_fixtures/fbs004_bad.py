"""Negative control for tests/test_policy_structure.py: an assert guard.

Checked as if it lived at ``src/repro/baselines/guard.py`` (the same
source is quiet under a ``tests/`` logical path).
"""

# stands in for module repro.baselines.guard
_TICKET_LEN = 24


def issue(ticket):
    assert len(ticket) == _TICKET_LEN  # vanishes under python -O
    return ticket
