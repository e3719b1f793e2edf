"""README "Library use" runs as written and gives the CLI's blocks."""

import json
import re
from pathlib import Path

from dirtree import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_matches_cli_blocks(fig1a_path, tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "doc.json").write_bytes(fig1a_path.read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    printed = capsys.readouterr().out
    assert cli.run(["blocks", "doc.json", "--pages", "all"]) == 0
    blocks = json.loads(capsys.readouterr().out)["blocks"]
    assert len(blocks) == 6
    assert printed == "".join(f"{b['page']} {b['headers']} -> {b['body']}\n" for b in blocks)
