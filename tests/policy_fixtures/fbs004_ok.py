"""Compliant twin for tests/test_policy_structure.py: typed raises guard.

Checked as if it lived at ``src/repro/baselines/guard.py``.
"""

# stands in for module repro.baselines.guard
_TICKET_LEN = 24


def issue(ticket):
    if len(ticket) != _TICKET_LEN:
        raise ValueError(
            f"ticket is {len(ticket)} bytes, expected {_TICKET_LEN}"
        )
    return ticket
