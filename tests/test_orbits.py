"""Critical-orbit tails, tame/wild classification, and the indicator marks."""

import numpy as np
import pytest

from ratdyn.cycles import Annotation, analyze_cycles
from ratdyn.orbits import (
    KIND_BOUNDED,
    KIND_TAME,
    KIND_WILD,
    classify_tails,
    delta_marks,
    epsilon_marks,
    orbit_transcript_rows,
    regions_from_annotations,
)
from ratdyn.ratmap import SpherePoint, parse_map

GOLDEN = (np.sqrt(5) - 1) / 2
LAM_G = np.exp(2j * np.pi * GOLDEN)
C_G = LAM_G / 2 - LAM_G**2 / 4


def pipeline(expr, params=None, anns=(), max_period=2, budget=50_000):
    f = parse_map(expr, params)
    cycles = analyze_cycles(f, max_period, anns)
    tails, split = classify_tails(f, cycles, anns, budget=budget)
    return f, cycles, tails, split


def tail_of(tails, z):
    pt = SpherePoint(z) if z != "inf" else SpherePoint.infinity()
    for t in tails:
        if any(p.close_to(pt) for p, _ in t.members):
            return t
    raise AssertionError(f"no tail containing {z}")


class TestClassification:
    def test_super_cycle_member_is_bounded(self):
        _, _, tails, _ = pipeline("z^2 - 1")
        t = tail_of(tails, 0.0)
        assert t.classification == KIND_BOUNDED

    def test_attracting_basin_is_tame(self):
        f, cycles, tails, _ = pipeline("z^2 - 1/2")
        t = tail_of(tails, 0.0)
        assert t.classification == KIND_TAME
        i = int(t.target[1:])
        assert cycles[i].cls == "Attracting"

    def test_parabolic_basin_is_tame(self):
        _, cycles, tails, _ = pipeline("z^2 + 1/4")
        t = tail_of(tails, 0.0)
        assert t.classification == KIND_TAME
        assert cycles[int(t.target[1:])].cls.startswith("Parabolic")

    def test_parabolic_basin_beyond_radius_two_is_tame(self):
        # the petal detector expands at u = z - 5, not in the 1/z chart
        _, cycles, tails, _ = pipeline("z + (z - 5)^2", max_period=1)
        t = tail_of(tails, 4.5)
        assert t.classification == KIND_TAME
        assert cycles[int(t.target[1:])].cls.startswith("Parabolic")

    def test_two_petal_map_has_two_tame_tails(self):
        _, _, tails, split = pipeline("z + z^3")
        tame = [t for t in tails if t.classification == KIND_TAME]
        assert len(tame) == 2
        assert all(t.target == tame[0].target for t in tame)
        assert split.ram_t.total == 2

    def test_siegel_critical_orbit_is_wild(self):
        ann = Annotation(
            kind="RotationNumberBrjuno",
            cycle=[(LAM_G / 2).real, (LAM_G / 2).imag],
            annulus=(0.05,),
        )
        _, _, tails, _ = pipeline("z^2 + c", {"c": C_G}, [ann], max_period=1)
        t = tail_of(tails, 0.0)
        assert t.classification == KIND_WILD
        assert t.confidence == "low"
        assert t.budget_used == 50_000

    def test_wild_last_point_is_the_last_iterate(self):
        f, _, tails, _ = pipeline("z^2 + c", {"c": C_G}, max_period=1, budget=5000)
        t = tail_of(tails, 0.0)
        assert t.classification == KIND_WILD
        last = f.orbit(0.0, 5000)[-1]
        assert t.final_stats["last_chart"] == "z"
        assert t.final_stats["last_point"] == [last.value.real, last.value.imag]

    def test_critical_cycle_through_infinity_merges(self):
        # 0 -> -1 -> inf -> 0: both critical points lie on one 3-cycle
        _, _, tails, _ = pipeline("1/(z^2-1)", max_period=3)
        assert len(tails) == 1
        t = tails[0]
        assert t.classification == KIND_BOUNDED
        assert t.multiplicity == 2
        assert t.final_stats == {"preperiod": 0, "loop": 3}

    def test_pcf_tails_merge(self):
        _, _, tails, split = pipeline("(z^2+1)^2 / (4*z^3 - 4*z)")
        assert len(tails) == 1
        assert tails[0].classification == KIND_BOUNDED
        assert split.ram_b.total == 6


class TestSplitConservation:
    @pytest.mark.parametrize(
        "expr,params",
        [
            ("z^2 - 1", None),
            ("z^2 + c", {"c": C_G}),
            ("z + z^3", None),
            ("(z^2+1)^2 / (4*z^3 - 4*z)", None),
        ],
    )
    def test_partition_preserves_total(self, expr, params):
        f, _, _, split = pipeline(expr, params)
        total = split.ram_b.total + split.ram_t.total + split.ram_w.total
        assert total == 2 * f.degree - 2


class TestMarks:
    def test_epsilon_zero_for_wild_siegel(self):
        ann = Annotation(
            kind="RotationNumberBrjuno",
            cycle=[(LAM_G / 2).real, (LAM_G / 2).imag],
            annulus=(0.05,),
        )
        f, cycles, tails, split = pipeline(
            "z^2 + c", {"c": C_G}, [ann], max_period=1
        )
        regions = regions_from_annotations(cycles, [ann])
        assert [r.id for r in regions] == ["SD0"]
        assert epsilon_marks(split, regions) == {"SD0": 0}

    def test_delta_zero_for_repelling_parabolic(self):
        _, cycles, tails, split = pipeline("z + z^2")
        marks = delta_marks(cycles, split)
        assert list(marks.values()) == [0]  # Re(nu) = 1 > 0

    def test_delta_requires_full_petal_count(self):
        # the degree-1 parabolic has Re(nu) = 0 but no critical orbits at all
        _, cycles, tails, split = pipeline("z / (1 + z)")
        marks = delta_marks(cycles, split)
        assert list(marks.values()) == [0]


class TestTranscript:
    def test_rows_shape_and_chart(self):
        f = parse_map("z^2 + 1/4")
        rows = orbit_transcript_rows(f, 3.0, 4)
        assert len(rows) == 5
        assert rows[0][3] == "w"  # |z| > 2 starts in the inverted chart
        assert rows[0][0] == 0 and isinstance(rows[1][1], float)

    def test_rows_through_infinity(self):
        f = parse_map("1/(z^2-1)")
        rows = orbit_transcript_rows(f, 1.0, 4)
        assert rows == [
            (0, 1.0, 0.0, "z"),
            (1, 0.0, 0.0, "w"),
            (2, 0.0, 0.0, "z"),
            (3, -1.0, 0.0, "z"),
            (4, 0.0, 0.0, "w"),
        ]
