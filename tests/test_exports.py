"""The public names of the package are the entry points the README lists."""

import re
from pathlib import Path

import ratdyn

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_entry_points():
    """Backticked names before the dash of each bullet in the README's entry-point list."""
    text = README.read_text()
    section = text.split("The main entry points")[1].split("\n## ")[0]
    names = set()
    for bullet in re.split(r"\n- ", section)[1:]:
        head = " ".join(bullet.split()).split("—")[0]
        names.update(re.findall(r"`(\w+)`", head))
    return names


def test_all_matches_readme():
    assert set(ratdyn.__all__) - {"__version__"} == readme_entry_points()
