import re
import shlex
from pathlib import Path

from hurwitz.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 8 and all(argv[0] == "hurwitz" for argv in commands)
    monkeypatch.chdir(tmp_path)  # the scans write rows.jsonl here
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "rows.jsonl").stat().st_size > 0
