"""Outcome records for identity checks."""

from __future__ import annotations

from typing import NamedTuple


class VerificationReport(NamedTuple):
    """One checked identity: both sides rendered as text, plus the verdict.

    ``passed`` is always the literal equality of the two values the
    check computed, never a tolerance.  A named tuple, so immutable and
    cheap to build: ``verify`` makes one per sublink, 2^com in all.
    """

    subject: str
    claim: str
    lhs: str
    rhs: str
    passed: bool


def compare(subject: str, claim: str, lhs, rhs) -> VerificationReport:
    """Build a report from two exactly comparable values."""
    return VerificationReport(subject, claim, str(lhs), str(rhs), lhs == rhs)
