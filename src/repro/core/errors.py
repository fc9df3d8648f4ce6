"""Exception hierarchy for the FBS protocol."""

from __future__ import annotations

__all__ = [
    "FBSError",
    "ReceiveError",
    "StaleTimestampError",
    "MacMismatchError",
    "UnknownPrincipalError",
    "HeaderFormatError",
    "ScenarioError",
]


class FBSError(Exception):
    """Base class for all FBS protocol errors."""


class ReceiveError(FBSError):
    """A datagram failed receive-side validation (the pseudo-code's
    ``return error`` paths, R4 and R9 in Figure 4)."""


class StaleTimestampError(ReceiveError):
    """The timestamp fell outside the freshness window (R3-R4)."""


class MacMismatchError(ReceiveError):
    """MAC verification failed (R8-R9)."""


class HeaderFormatError(ReceiveError):
    """The security flow header could not be parsed."""


class UnknownPrincipalError(FBSError):
    """No public value certificate could be obtained for a principal."""


class ScenarioError(FBSError):
    """An attack/evaluation scenario did not reach its expected state
    (e.g. traffic that must be delivered before the attack was lost).
    Raised explicitly so the guard survives ``python -O``
    (``tests/test_policy_structure.py`` bans ``assert`` here)."""
