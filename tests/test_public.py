"""The public surface: the exported names and the README quick start."""

import re
from pathlib import Path

import gbfan

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_are_attributes_without_duplicates():
    assert len(set(gbfan.__all__)) == len(gbfan.__all__)
    assert [name for name in gbfan.__all__ if not hasattr(gbfan, name)] == []


def test_readme_quick_start_prints_its_comments(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[:2] == ["2 10", "1 1"]
