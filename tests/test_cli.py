import json

import pytest

from hurwitz.cli import main


def test_check_expect_match(capsys):
    assert main(["check", "4: [3,1] [2,2] [2,2]", "--expect", "exceptional"]) == 0
    out = capsys.readouterr().out
    assert "status:    exceptional" in out


def test_check_expect_mismatch(capsys):
    assert main(["check", "4: [3,1] [2,2] [2,2]", "--expect", "realizable"]) == 3


def test_check_parse_error(capsys):
    assert main(["check", "4: [3,2]"]) == 1
    assert "sums to 5" in capsys.readouterr().err


def test_check_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 1


def test_check_json_fields(capsys):
    assert main(["check", "8: [5,3] [2,2,2,2] [3,2,2,1]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "realizable"
    assert payload["method"] == "sample"
    assert payload["degree"] == 8
    assert payload["partitions"] == [[5, 3], [2, 2, 2, 2], [3, 2, 2, 1]]
    assert payload["certificate"]["type"] == "witness"
    assert len(payload["certificate"]["perms"]) == 3
    assert set(payload["stats"]) == {"nodes", "cache_hits", "millis"}
    assert payload["input"] == "8: [5,3] [2,2,2,2] [3,2,2,1]"


def test_check_json_reasons(capsys):
    assert main(["check", "12: [2,2,2,2,2,2] [2,2,2,2,2,2] [8,4]", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "filter:prop1.case3"
    assert payload["reasons"][0]["rule"] == "prop1.case3"


def test_scan_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    assert main([
        "scan", "--degree-max", "4", "--branch-points-max", "3", "--out", str(out),
    ]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 10  # one n=2 row per degree, one at (3,3), six at (4,3)
    assert all("oracle_status" in row for row in rows)
    summary = capsys.readouterr().out
    assert "d=4 n=3: total=6 realizable=5 exceptional=1 unknown=0 by method:" in summary
    assert "disagreements: 0" in summary


def test_scan_deterministic_bytes(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for path in (first, second):
        assert main([
            "scan", "--degree-max", "5", "--branch-points-max", "3", "--out", str(path),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_family_lists_instances(capsys):
    assert main(["family", "--s", "2", "--k", "3", "--t", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["6: [2,2,2] [2,2,2] [4,1,1] [2,1,1,1,1]"]


def test_family_emit_verdicts(capsys):
    assert main(["family", "--s", "2", "--k", "3", "--t", "2", "--emit-verdicts"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert rows and all(row["status"] == "exceptional" for row in rows)
    assert all(row["expected_rule"] == "cor1.parts" for row in rows)


def test_family_empty_warns(capsys):
    assert main(["family", "--s", "2", "--k", "2", "--t", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "warning" in captured.err


def test_corpus_command(capsys):
    assert main(["corpus"]) == 0
    assert "corpus entries matched" in capsys.readouterr().out
