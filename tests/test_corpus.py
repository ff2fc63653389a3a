from hurwitz.corpus import load_corpus, run_corpus
from hurwitz.engine import scan
from hurwitz.partitions import parse_datum, rh_defect


def test_corpus_loads_and_balances():
    entries = load_corpus()
    assert len(entries) >= 10
    for entry in entries:
        datum = parse_datum(entry.datum_text)
        assert rh_defect(datum) == 0
        assert entry.expected in ("realizable", "exceptional")
        assert entry.source


def test_corpus_all_match():
    results = run_corpus()
    failures = [r.entry.datum_text for r in results if not r.ok]
    assert failures == []


def test_corpus_known_landmarks():
    by_text = {e.datum_text: e for e in load_corpus()}
    assert by_text["4: [3,1] [2,2] [2,2]"].expected == "exceptional"
    assert by_text["8: [5,3] [2,2,2,2] [3,2,2,1]"].expected == "realizable"
    assert by_text["8: [5,3] [2,2,2,2] [3,3,1,1]"].expected == "exceptional"
    assert by_text["12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]"].expected == "realizable"


def test_corpus_roundtrips_into_scan_cells():
    report = scan(6, 4)
    assert report.disagreements == []
    rendered = {row["input"] for row in report.rows}
    for entry in load_corpus():
        datum = parse_datum(entry.datum_text)
        n = len(datum.partitions)
        if datum.degree <= 6 and n <= 4:
            assert datum.render() in rendered
