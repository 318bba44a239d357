"""Assembly and auditing of the counting inequalities."""

import numpy as np
import pytest

from ratdyn.corpus import run_pipeline
from ratdyn.count import CountError, CountReport, evaluate_counts
from ratdyn.cycles import Annotation
from ratdyn.ratmap import parse_map

GOLDEN = (np.sqrt(5) - 1) / 2
LAM_G = np.exp(2j * np.pi * GOLDEN)
C_G = LAM_G / 2 - LAM_G**2 / 4


def full_audit(expr, params=None, anns=(), max_period=2, budget=50_000,
               **kwargs):
    f = parse_map(expr, params)
    run = run_pipeline(f, anns, max_period, budget)
    return evaluate_counts(f, run.cycles, run.tails, run.split, run.epsilons, run.deltas,
                           anns, **kwargs)


class TestBasics:
    def test_degree_one_rejected(self):
        with pytest.raises(CountError):
            full_audit("z / (1 + z)")

    def test_parabolic_quadratic_reads_zero(self):
        rep = full_audit("z + z^2")
        assert (rep.lhs_v, rep.rhs_v) == (0, 0)
        assert (rep.lhs_i, rep.rhs_i) == (0, 0)
        assert rep.satisfied_v and rep.satisfied_i
        assert rep.delta == 0
        assert rep.n_parabolic == 1 and rep.e_by_parabolic == {"C0": 1}

    def test_siegel_is_tight(self):
        ann = Annotation(
            kind="RotationNumberBrjuno",
            cycle=[(LAM_G / 2).real, (LAM_G / 2).imag],
            annulus=(0.05,),
        )
        rep = full_audit("z^2 + c", {"c": C_G}, [ann], max_period=1)
        assert rep.n_SD == 1
        assert (rep.lhs_v, rep.rhs_v) == (1, 1)
        assert (rep.lhs_i, rep.rhs_i) == (1, 1)
        assert rep.satisfied_v and rep.satisfied_i

    def test_wild_ram_without_multiplicity(self):
        # z^4 + c with a wild (Cremer-annotated) fixed point: the single
        # critical point has multiplicity 3 but counts once
        lam = np.exp(2j * np.pi * 0.110001)
        fix = lam / 4  # fixed point of z^4 + c with multiplier lam: 4 p^3 = lam
        p = (lam / 4) ** (1 / 3)
        c = p - p**4
        ann = Annotation(kind="RotationNumberLiouville",
                         cycle=[p.real, p.imag])
        rep = full_audit("z^4 + c", {"c": c}, [ann], max_period=1,
                         budget=20_000)
        assert rep.n_CR == 1
        assert rep.wild_tails == 1
        assert rep.wild_ram_points == 1


class TestJudgementCalls:
    def test_unresolved_counts_as_cremer_by_default(self):
        rep = full_audit("z^2 + c", {"c": C_G}, max_period=1)
        assert rep.n_CR == 1
        assert any("unresolved" in c for c in rep.caveats)

    def test_unresolved_can_be_excluded(self):
        rep = full_audit("z^2 + c", {"c": C_G}, max_period=1,
                         unresolved_as_cremer=False)
        assert rep.n_CR == 0
        assert any("excluded" in c for c in rep.caveats)

    def test_lattes_caveat(self):
        rep = full_audit("(z^2+1)^2 / (4*z^3 - 4*z)",
                         anns=[Annotation(kind="LattesFlag")])
        assert any("Lattes" in c for c in rep.caveats)
        assert (rep.lhs_v, rep.rhs_v) == (0, 0)

    def test_low_confidence_wild_caveat(self):
        ann = Annotation(kind="RotationNumberLiouville", cycle=None)
        rep = full_audit("z^2 + c", {"c": C_G}, [ann], max_period=1)
        assert any("low confidence" in c for c in rep.caveats)


class TestReport:
    def test_json_round_trip_keys(self):
        rep = full_audit("z + z^2")
        obj = rep.to_json()
        for key in ("n_SD", "n_CR", "n_HR", "lhs_v", "rhs_v", "lhs_i",
                    "rhs_i", "satisfied_v", "satisfied_i", "caveats"):
            assert key in obj

    def test_table_flags_violation(self):
        rep = CountReport(n_HR=1, lhs_v=2, rhs_v=0, satisfied_v=False,
                          lhs_i=2, rhs_i=2, satisfied_i=True)
        text = rep.table()
        assert "VIOLATED" in text and "OK" in text
