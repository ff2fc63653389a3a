import pytest

import hurwitz.corpus as corpus_mod
from hurwitz.corpus import load_corpus
from hurwitz.engine import DecisionEngine, disagreements, scan
from hurwitz.partitions import parse_datum, rh_defect


def test_corpus_loads_and_balances(tmp_path, monkeypatch):
    entries = load_corpus()
    assert len(entries) >= 10
    for entry in entries:
        datum = parse_datum(entry.datum_text)
        assert rh_defect(datum) == 0
        assert entry.expected in ("realizable", "exceptional")
        assert entry.source
    # a corpus file with a bad entry is rejected as it loads
    monkeypatch.setattr(corpus_mod.resources, "files", lambda package: tmp_path)
    for line, message in [
        ('{"datum": "5: [5]", "expected": "exceptional"}', r"^corpus entry is not balanced: 5: \[5\]$"),
        ('{"datum": "4: [3,1] [2,2] [2,2]", "expected": "unknown"}',
         r"^corpus entry has an unknown expectation: 'unknown'$"),
    ]:
        (tmp_path / "corpus.jsonl").write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_corpus()


def test_corpus_all_match():
    engine = DecisionEngine()
    failures = [entry.datum_text for entry in load_corpus()
                if engine.decide(entry.datum_text).status != entry.expected]
    assert failures == []


def test_corpus_known_landmarks():
    by_text = {e.datum_text: e for e in load_corpus()}
    assert by_text["4: [3,1] [2,2] [2,2]"].expected == "exceptional"
    assert by_text["8: [5,3] [2,2,2,2] [3,2,2,1]"].expected == "realizable"
    assert by_text["8: [5,3] [2,2,2,2] [3,3,1,1]"].expected == "exceptional"
    assert by_text["12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]"].expected == "realizable"


def test_corpus_roundtrips_into_scan_cells():
    rows = scan(6, 4)
    assert disagreements(rows) == []
    rendered = {row["input"] for row in rows}
    for entry in load_corpus():
        datum = parse_datum(entry.datum_text)
        n = len(datum.partitions)
        if datum.degree <= 6 and n <= 4:
            assert datum.render() in rendered
