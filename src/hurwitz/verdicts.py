"""Decision outcomes: status, provenance, certificates, and JSON shapes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .partitions import CandidateDatum

REALIZABLE = "realizable"
EXCEPTIONAL = "exceptional"
UNKNOWN = "unknown"

LIMIT_DEGREE = "degree-limit"
LIMIT_BUDGET = "budget"


@dataclass(slots=True)
class DecisionStats:
    nodes: int = 0
    cache_hits: int = 0
    millis: int = 0

    def to_json(self) -> dict[str, int]:
        return {"nodes": self.nodes, "cache_hits": self.cache_hits, "millis": self.millis}


@dataclass(slots=True)
class Verdict:
    """Outcome of a decision with enough context to re-verify it.

    ``method`` is one of ``rh``, ``base-case``, ``filter:<rule>``,
    ``reduction:<thm>``, ``sample`` (a witness from seeded random draws),
    ``oracle`` (the search), or ``songxu``.  Realizable verdicts from
    the decision engine always carry a certificate; unknown verdicts state
    their limit (``degree-limit`` or ``budget``).
    """

    status: str
    method: str
    certificate: Any = None
    reasons: tuple = ()
    limit: str | None = None
    stats: DecisionStats = field(default_factory=DecisionStats)

    def to_json(self, datum: "CandidateDatum", input_text: str | None = None) -> dict:
        out = {
            "input": input_text if input_text is not None else datum.render(),
            "degree": datum.degree,
            "partitions": [list(p.parts) for p in datum.partitions],
            "status": self.status,
            "method": self.method,
            "reasons": [r.to_json() for r in self.reasons],
            "stats": self.stats.to_json(),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.limit is not None:
            out["limit"] = self.limit
        return out
