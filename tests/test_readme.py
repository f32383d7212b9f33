"""README code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under the ``## heading`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_sketch_runs(capsys):
    code = readme_block("Library sketch")
    exec(compile(code, "README.md (Library sketch)", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
