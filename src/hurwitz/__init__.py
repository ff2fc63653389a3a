"""Decision engine for sphere-to-sphere branched cover data.

Given a degree and a multiset of partitions (the local degrees over each
branch point), the package classifies the datum as realizable, exceptional,
or unknown.  Fast divisibility filters and degree-reducing equivalences
settle structured data; seeded random draws (``sample``) look for a witness
next, and an exhaustive, certificate-producing permutation search settles
what is left at small degree.
"""

from .criteria import detect_structures, family_instances
from .engine import DecisionEngine, decide, scan, verify
from .oracle import SearchBudget
from .partitions import CandidateDatum, enumerate_candidates, parse_datum
from .verdicts import EXCEPTIONAL, REALIZABLE, UNKNOWN, Verdict

__version__ = "0.1.0"

__all__ = [
    "CandidateDatum",
    "DecisionEngine",
    "EXCEPTIONAL",
    "REALIZABLE",
    "SearchBudget",
    "UNKNOWN",
    "Verdict",
    "decide",
    "detect_structures",
    "enumerate_candidates",
    "family_instances",
    "parse_datum",
    "scan",
    "verify",
]
