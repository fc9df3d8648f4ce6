"""Suppressions that no longer suppress anything (violates FBS012).

Linted as if it lived at ``src/repro/core/guard.py``.
"""
# fbslint: module=repro.core.guard
# fbslint: disable-file=FBS009


def issue(token):
    return bool(token)  # fbslint: disable=FBS004
