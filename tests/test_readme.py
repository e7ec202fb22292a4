"""The README's code runs as written."""

import re
from pathlib import Path

from gencov import parse_design

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the given `## ` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs(capsys):
    namespace = {}
    exec(compile(_python_block("Library tour"), "README.md", "exec"), namespace)
    res, rep = namespace["res"], namespace["rep"]
    assert res.status == "proven"
    assert rep.best_lower <= res.optimum <= rep.best_upper
    # the printed text is the canonical form of the design it names
    assert parse_design(capsys.readouterr().out) == res.design
