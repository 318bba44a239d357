"""The public names of the package are the entry points the README lists."""

import ast
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


def _modules_matching(pattern):
    """Stems of the package's modules whose source matches the regex pattern."""
    src = Path(ratdyn.__file__).parent
    return {p.stem for p in src.glob("*.py") if re.search(pattern, p.read_text())}


def test_chart_rule_stays_in_raw_arithmetic():
    # local analysis expands in ratmap.local_coord; the radius-2 chart rule
    # serves only the raw arithmetic of ratmap and the outputs of orbits
    assert _modules_matching("chart_coords") <= {"ratmap", "orbits"}


def test_sphere_distance_lives_in_ratmap():
    # one home for sphere-point arithmetic: no other module defines a chart
    # distance or the exact reciprocal that the array rules share
    assert _modules_matching(r"def \w*distance|_reciprocal") <= {"ratmap"}


def test_synthetic_division_lives_in_kernel():
    # kernel.ruffini is the one pass of synthetic division (shifted and
    # deflated run it); no other module runs the recurrence acc = c[i] + z0 acc
    recurrence = r"(\w+) = (\w+\[\w+\] = )?\w+\[\w+\] \+ \w+ \* \1\b"
    assert _modules_matching(recurrence) == {"kernel"}


def test_wronskian_lives_in_ratmap():
    # RationalMap.wronskian is built once per map; extjet reads it
    assert _modules_matching(r"derivative\(\) \* \w+ - \w+ \* \w+\.derivative\(\)") == {"ratmap"}


def test_annotation_anchoring_lives_in_cycles():
    # Annotation.names decides which cycle an annotation names
    assert _modules_matching(r"isinstance\([\w.]*cycle, int\)") == {"cycles"}


def test_no_clustering_radius():
    # a multiplicity comes only from kernel.collapse_multiple_roots (or an
    # exact zero at the origin), and cycles matches points at SNAP_TOL
    assert _modules_matching(r"\b(CLUSTER_TOL|_cluster|match_tol)\b") == set()


def _owners(test):
    """(module, innermost enclosing function or "") of each node of the
    package's source for which test holds."""
    found = set()

    def visit(node, module, owner):
        if test(node):
            found.add((module, owner))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in Path(ratdyn.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_one_orbit_kernel():
    # every orbit step runs through the kernel: only _orbit_kernel, which
    # builds it, reads the Horner coefficients, and only ratmap compiles
    # Python source
    def reads_horner(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name == "_horner" and isinstance(node.ctx, ast.Load)

    def compiles(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval", "compile"))

    assert _owners(reads_horner) <= {("ratmap", "_orbit_kernel")}
    assert {module for module, _ in _owners(compiles)} <= {"ratmap"}


def _calls(attr):
    """The test for a call of a method or attribute named attr."""
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attr


def test_jet_iteration_lives_in_ratmap():
    # RationalMap.iterate_jets is the one expansion of f^n, seeded only by
    # RationalMap.local_jets (which cycles, the multipliers, parabolic,
    # extjet and compose_self_homogeneous read); only the residue
    # quadrature pulls f back chart by chart
    def defines_jet_step(node):
        return isinstance(node, ast.FunctionDef) and node.name in ("_jet_mul", "_homogeneous_pair")

    assert {module for module, _ in _owners(defines_jet_step)} == {"ratmap"}
    assert _owners(_calls("iterate_jets")) == {("ratmap", "local_jets")}
    assert {module for module, _ in _owners(_calls("local_fraction"))} == {"residue"}


def test_no_unused_imports():
    # a name a module imports must be read in it (a name listed in
    # __all__ counts as read): the linter this package has
    unused = []
    for path in Path(ratdyn.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            read |= set(ratdyn.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_no_private_call_layers():
    # the parser combines its Polynomial pairs inline, and dynamical_residue
    # picks the region family once and calls the region functions itself
    assert not _modules_matching(r"_FractionField|_region_sample")


def test_parabolic_model_has_one_home():
    # s0, the petal sectors and NORMAL_RADIUS are public rules of
    # ParabolicInvariants: no module imports a private name of parabolic
    def imports_private(node):
        return (isinstance(node, ast.ImportFrom) and node.module == "parabolic"
                and any(alias.name.startswith("_") for alias in node.names))

    assert _owners(imports_private) == set()


def test_parabolic_attraction_decided_in_cycles():
    # cycles.classify decides ParabolicAttracting by the sign of Re nu;
    # the other modules read the class
    assert _modules_matching(r"nu\.real <=") == {"cycles"}
