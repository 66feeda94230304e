"""Outcome records for identity checks."""

from __future__ import annotations

from typing import NamedTuple

from .laurent import LaurentA


class VerificationReport(NamedTuple):
    """One checked identity: the two compared values, plus the verdict.

    lhs and rhs are the values the check computed, a LaurentA for a
    polynomial claim and an int for a reversal-writhe claim; they are
    rendered as text only where they are printed, which ``verify`` does
    for a failing report alone.  ``passed`` is always their literal
    equality, never a tolerance.  A named tuple, so immutable and cheap
    to build: ``verify`` makes one per sublink, 2^com in all.
    """

    subject: str
    claim: str
    lhs: LaurentA | int
    rhs: LaurentA | int
    passed: bool


def compare(subject: str, claim: str, lhs, rhs) -> VerificationReport:
    """Build a report from two exactly comparable values."""
    return VerificationReport(subject, claim, lhs, rhs, lhs == rhs)
