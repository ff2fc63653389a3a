import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz.corpus as corpus_mod
from hurwitz import cli
from hurwitz.cli import main
from hurwitz.corpus import load_corpus


def test_check_expect_match(capsys):
    assert main(["check", "4: [3,1] [2,2] [2,2]", "--expect", "exceptional"]) == 0
    out = capsys.readouterr().out
    assert "status:    exceptional" in out


def test_check_expect_mismatch(capsys):
    assert main(["check", "4: [3,1] [2,2] [2,2]", "--expect", "realizable"]) == 3


def test_check_parse_error(capsys):
    assert main(["check", "4: [3,2]"]) == 1
    assert "sums to 5" in capsys.readouterr().err


def test_check_reads_back_its_canonical_form(capsys):
    assert main(["check", "1: [1]"]) == 0
    out = capsys.readouterr().out
    assert "canonical: 1:\n" in out
    assert "witness:   ()\n" in out
    assert main(["check", "1:", "--expect", "realizable"]) == 0
    capsys.readouterr()
    # no partition at all: unbalanced unless the degree is 1
    assert main(["check", "4:", "--expect", "exceptional"]) == 0
    assert "method:    rh" in capsys.readouterr().out


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
    assert set(payload["stats"]) == {"nodes", "cache_hits"}
    assert payload["input"] == "8: [5,3] [2,2,2,2] [3,2,2,1]"


def test_check_prints_the_chain(capsys):
    assert main(["check", "8: [4,4] [2,2,2,2] [2,2,2,2]"]) == 0
    assert "chain:     thm2(s=2,t=4) d=1; base: witness ()\n" in capsys.readouterr().out


def test_check_prints_the_limit(capsys):
    assert main(["check", "5: [4,1] [3,2] [2,2,1]", "--max-nodes", "1"]) == 0
    out = capsys.readouterr().out
    assert "method:    sample\nlimit:     budget\n" in out
    assert main(["check", "5: [4,1] [3,2] [2,2,1]", "--max-nodes", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["method"], payload["limit"]) == ("unknown", "sample", "budget")


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


def test_scan_rejects_fewer_than_one_job(capsys):
    for jobs in ("0", "-2"):
        assert main([
            "scan", "--degree-max", "3", "--branch-points-max", "3", "--jobs", jobs,
        ]) == 1
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_scan_deterministic_bytes(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for path in (first, second):
        assert main([
            "scan", "--degree-max", "5", "--branch-points-max", "3", "--out", str(path),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_scan_bytes_are_pinned(tmp_path, capsys):
    # the whole JSONL of d <= 8, n <= 4 (1,469 rows, 102 chain certificates):
    # a change that means to alter a row re-pins this digest
    out = tmp_path / "rows.jsonl"
    assert main([
        "scan", "--degree-max", "8", "--branch-points-max", "4", "--out", str(out),
    ]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 1469
    assert data.count(b'"type":"chain"') == 102
    assert hashlib.sha256(data).hexdigest() == (
        "41a203e056b30a187fe673f115341bbac8047a4ef16b48908c80cad0d636e267"
    )


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


def test_corpus_json_lines(capsys):
    assert main(["corpus", "--format", "json"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert summary.endswith("corpus entries matched")
    assert len(lines) == len(load_corpus())
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"datum", "expected", "status", "method", "ok", "source"}, line
        assert row["ok"] is True, line


def test_corpus_output_is_pinned(capsys):
    # the text and JSON lines of the embedded corpus, byte for byte
    for argv, digest in [
        (["corpus"], "65917c93f85d88c474d8cb0310a184cbb35ea2cd7fe4035899dbd6d132d0396e"),
        (["corpus", "--format", "json"],
         "7134d42c00a4948ea635abb86adf46df7a7fc8fd21520a2e400967b441572891"),
    ]:
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_corpus_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a corpus whose one entry expects the wrong status
    monkeypatch.setattr(corpus_mod.resources, "files", lambda package: tmp_path)
    (tmp_path / "corpus.jsonl").write_text(
        '{"datum": "4: [3,1] [2,2] [2,2]", "expected": "realizable", "source": "wrong"}\n',
        encoding="utf-8")
    assert main(["corpus"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL expected=realizable   got=exceptional ")
    assert captured.out.endswith(" 4: [3,1] [2,2] [2,2]\n")
    assert captured.err.endswith("0/1 corpus entries matched\n")
    assert main(["corpus", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert captured.err.endswith("0/1 corpus entries matched\n")


def test_scan_unopenable_out_is_a_usage_error_before_scanning(tmp_path, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran before --out was opened")

    monkeypatch.setattr(cli, "scan", no_scan)
    with pytest.raises(SystemExit) as err:
        main(["scan", "--degree-max", "4", "--branch-points-max", "3",
              "--out", str(tmp_path / "missing" / "rows.jsonl")])
    assert err.value.code == 1
    assert "--out" in capsys.readouterr().err


def test_scan_usage_errors_leave_an_existing_out_file_unchanged(tmp_path):
    out = tmp_path / "rows.jsonl"
    out.write_bytes(b"kept\n")
    scan_args = ["scan", "--out", str(out), "--branch-points-max", "3"]
    for extra in (["--degree-max", "abc"], ["--degree-max", "4", "--max-nodes", "0"],
                  ["--degree-max", "4", "--jobs", "0"]):
        try:
            code = main(scan_args + extra)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == 1, extra
        assert out.read_bytes() == b"kept\n", extra


def test_closed_stdout_exits_1_silently():
    # the rows (about 140 kB) overfill the pipe, so writes continue after the reader closes
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hurwitz", "scan", "--degree-max", "8", "--branch-points-max", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_closed_stdout_exits_1_in_process(monkeypatch):
    # the same exit as above inside this process, so a line trace of the suite
    # reaches it: the pipe's reader is closed before the command prints
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["check", "4: [3,1] [2,2] [2,2]"]) == 1
        print("more output", file=stdout)
        stdout.flush()  # stdout now writes to the null device
