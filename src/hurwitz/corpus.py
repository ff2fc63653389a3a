"""Embedded regression corpus: data with known verdicts and their sources."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .partitions import parse_datum, rh_defect


@dataclass(frozen=True)
class CorpusEntry:
    datum_text: str
    expected: str
    source: str


def load_corpus() -> tuple[CorpusEntry, ...]:
    """Load and self-validate the embedded corpus (every entry must balance)."""
    raw = resources.files("hurwitz").joinpath("corpus.jsonl").read_text(encoding="utf-8")
    entries = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        entry = CorpusEntry(
            datum_text=obj["datum"],
            expected=obj["expected"],
            source=obj.get("source", ""),
        )
        datum = parse_datum(entry.datum_text)
        if rh_defect(datum) != 0:
            raise ValueError(f"corpus entry is not balanced: {entry.datum_text}")
        if entry.expected not in ("realizable", "exceptional"):
            raise ValueError(f"corpus entry has an unknown expectation: {entry.expected!r}")
        entries.append(entry)
    return tuple(entries)
