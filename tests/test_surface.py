"""The package exports only names that the package, its demos, its benchmark
or its README use; a name only the tests call is surface nobody needs."""

import re
from pathlib import Path

import chernweil

ROOT = Path(__file__).resolve().parents[1]


def _lines_outside_the_tests():
    # __init__.py only re-exports, so it does not count as a use
    paths = [p for p in sorted((ROOT / "src" / "chernweil").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "README.md")
    return [line for p in paths for line in p.read_text().splitlines()]


def test_every_export_is_used_outside_the_tests():
    lines = _lines_outside_the_tests()
    unused = []
    for name in chernweil.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
