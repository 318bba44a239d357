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


def test_chart_rule_stays_in_raw_arithmetic():
    # local analysis expands in ratmap.local_coord; the radius-2 chart rule
    # serves only the raw arithmetic of ratmap and the outputs of orbits
    src = Path(ratdyn.__file__).parent
    users = {p.stem for p in src.glob("*.py") if "chart_coords" in p.read_text()}
    assert users <= {"ratmap", "orbits"}


def test_sphere_distance_lives_in_ratmap():
    # one home for sphere-point arithmetic: no other module defines a chart
    # distance or the exact reciprocal that the array rules share
    src = Path(ratdyn.__file__).parent
    rule = re.compile(r"def \w*distance|_reciprocal")
    owners = {p.stem for p in src.glob("*.py") if rule.search(p.read_text())}
    assert owners <= {"ratmap"}
