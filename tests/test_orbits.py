"""Critical-orbit tails, tame/wild classification, and the indicator marks."""

import numpy as np
import pytest

from ratdyn import orbits
from ratdyn.corpus import load_corpus
from ratdyn.cycles import (
    CLASS_ATTRACTING,
    CLASS_SIEGEL,
    CLASS_SUPER,
    Annotation,
    analyze_cycles,
    load_annotations,
)
from ratdyn.orbits import (
    DWELL_RUN,
    KIND_BOUNDED,
    KIND_TAME,
    KIND_WILD,
    PETAL_RUN,
    _OrbitTracker,
    classify_tails,
    delta_marks,
    epsilon_marks,
    orbit_transcript_rows,
    regions_from_annotations,
)
from ratdyn.parabolic import PETAL_SLACK, tangency_and_residu
from ratdyn.ratmap import (
    SNAP_TOL,
    MapError,
    RationalMap,
    SpherePoint,
    chart_coords,
    distance,
    local_coord,
    parse_map,
    raw_array,
)

Z_TINY = complex(3.9e-309, -3.9e-309)
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
        if any(p == pt for p, _ in t.members):
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
        iterates = []
        f.iterate(0j, 5000, iterates)
        last = iterates[-1]
        assert t.final_stats["last_chart"] == "z"
        assert t.final_stats["last_point"] == [last.real, last.imag]

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


# z^2 + c near the cardioid's cusp (1/4 - d), its 1/2 bulb (-3/4 ± d) and
# its center (d): an attracting fixed point, or a 2-cycle below -3/4
ATTRACTING_SLICES = [c for k in range(2, 7) for c in (
    0.25 - 10.0**-k, -0.75 + 10.0**-k, -0.75 - 10.0**-k, 10.0**-k)]


class TestLanding:
    @pytest.mark.parametrize("c", ATTRACTING_SLICES)
    def test_converging_orbit_is_tame_to_the_attracting_cycle(self, c):
        _, cycles, tails, _ = pipeline("z^2 + c", {"c": c}, budget=100_000)
        t = tail_of(tails, 0.0)
        assert t.classification == KIND_TAME
        cycle = cycles[int(t.target[1:])]
        assert (cycle.cls, cycle.period) == ("Attracting", 2 if c < -0.75 else 1)
        assert t.final_stats["loop"] % cycle.period == 0

    def test_landing_radius_and_period(self):
        # c = -0.76: an attracting 2-cycle of multiplier 4(1 + c) = 0.96, so
        # two returns one snap cell apart lie within √2·SNAP_TOL/0.04 of it
        f, cycles, _, _ = pipeline("z^2 + c", {"c": -0.76})
        (i,) = [i for i, c in enumerate(cycles) if c.cls == "Attracting"]
        radius = np.sqrt(2) * SNAP_TOL / (1 - abs(cycles[i].multiplier))
        q = cycles[i].points[0].value
        landing = _OrbitTracker(f, cycles, [], 100)._landing
        assert landing(q + 0.9 * radius, 7, 4) == (KIND_TAME, f"C{i}")
        assert landing(q + 1.1 * radius, 7, 4) == (KIND_BOUNDED, "")
        # an odd loop cannot close near a 2-cycle, unless the iterate is on it
        assert landing(q + 0.9 * radius, 7, 3) == (KIND_BOUNDED, "")
        assert landing(q + 0.5 * SNAP_TOL, 7, 3) == (KIND_TAME, f"C{i}")
        # a critical point that is itself a cycle point
        assert landing(q, 0, 2) == (KIND_BOUNDED, f"C{i}")

    def test_landing_far_from_every_cycle_stays_bounded(self):
        # the orbit of ∞ revisits a snap cell after 2408 steps, with loop
        # 1033, and no attracting cycle point lies within the landing radius
        _, _, tails, _ = pipeline("(z^2 + 0.5)/(z^2 - 2)", budget=100_000)
        t = tail_of(tails, "inf")
        assert (t.classification, t.target) == (KIND_BOUNDED, "")


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

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="orbit length"):
            orbit_transcript_rows(parse_map("z^2 - 1"), 0.0, -3)

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

    def test_rows_through_an_overflowing_modulus(self):
        # 1/z + 1/2 maps Z_TINY to 1.28e308 (1 + i), whose |z| overflows a
        # double: its row is in the w chart, at 1/z = ±0
        f = parse_map("1/z + 0.5")
        rows = orbit_transcript_rows(f, Z_TINY, 3)
        assert rows == [(0, Z_TINY.real, Z_TINY.imag, "z"), (1, 0.0, 0.0, "w"),
                        (2, 0.5, 0.0, "z"), (3, 0.4, 0.0, "w")]


class TestAnnotatedRegions:
    def test_siegel_disc_centred_on_annotated_point(self):
        # l z + a z^2 + b z^3 has Siegel fixed points at 0 and at 1
        lam = LAM_G
        mu = np.exp(2j * np.pi * (np.sqrt(2) - 1))
        f = parse_map("l*z + a*z^2 + b*z^3",
                      {"l": lam, "a": 3 - 2 * lam - mu, "b": mu + lam - 2})
        anns = [
            Annotation(kind="RotationNumberBrjuno", cycle=[0.0, 0.0], annulus=(0.1,)),
            Annotation(kind="RotationNumberBrjuno", cycle=[1.0, 0.0], annulus=(0.1,)),
        ]
        regions = regions_from_annotations(analyze_cycles(f, 1, anns), anns)
        assert [r.id for r in regions] == ["SD0", "SD1"]
        assert regions[0].center == SpherePoint(0.0)
        assert regions[1].center == SpherePoint(1.0)

    @pytest.mark.parametrize("anchor, siegel", [
        (None, [0.0, 1.0]),  # unanchored: every undecided cycle, disc at the first
        ("index", [1.0]),
        ([1.0, 0.0], [1.0]),
        (7, []),  # an index past the cycle list names none
    ])
    def test_each_anchoring_names_one_cycle_for_class_and_disc(self, anchor, siegel):
        # analyze_cycles and regions_from_annotations agree on the named cycle
        lam = LAM_G
        mu = np.exp(2j * np.pi * (np.sqrt(2) - 1))
        f = parse_map("l*z + a*z^2 + b*z^3",
                      {"l": lam, "a": 3 - 2 * lam - mu, "b": mu + lam - 2})
        if anchor == "index":
            anchor = next(i for i, c in enumerate(analyze_cycles(f, 1)) if c.contains(1.0))
        ann = Annotation(kind="RotationNumberBrjuno", cycle=anchor, annulus=(0.1,))
        cycles = analyze_cycles(f, 1, [ann])
        assert [c.points for c in cycles if c.cls == CLASS_SIEGEL] == [
            [SpherePoint(v)] for v in siegel]
        regions = regions_from_annotations(cycles, [ann])
        assert [r.center for r in regions] == [SpherePoint(v) for v in siegel[:1]]

    def test_siegel_disc_at_infinity_is_measured_in_one_over_z(self):
        # in w = 1/z the map is w -> l w + w^2: a golden Siegel point at ∞
        f = parse_map("z^2/(l*z + 1)", {"l": LAM_G})
        ann = Annotation(kind="RotationNumberBrjuno", cycle="inf", annulus=(0.05,))
        cycles = analyze_cycles(f, 1, [ann])
        (sd,) = regions_from_annotations(cycles, [ann])
        assert sd.center.is_infinity
        assert not sd.contains(0.0)  # the superattracting fixed point
        assert sd.contains(1e6) and sd.contains(None)
        assert sd.contains_each(raw_array([0, 1e6, 10, None])).tolist() == [
            False, True, False, True]
        # the critical orbit stays within |1/z| <= 2, so it dwells in a wide disc
        wide = Annotation(kind="RotationNumberBrjuno", cycle="inf", annulus=(2.0,))
        tails, _ = classify_tails(f, cycles, [wide], budget=5000)
        t = tail_of(tails, -2 / LAM_G)
        assert (t.classification, t.target, t.budget_used) == (KIND_TAME, "SD0", 999)


# -- the block tracker against the scalar loop it replaced ------------------


def _scalar_key(z):
    chart, c = chart_coords(z)
    return (chart, round(c.real / SNAP_TOL), round(c.imag / SNAP_TOL))


def landing_rule(cycles, z, prev, loop):
    """(kind, target) of a landing, written out over (distance, cycle) pairs."""
    sinks = (CLASS_ATTRACTING, CLASS_SUPER)
    near = sorted((distance(z, q.value), i) for i, c in enumerate(cycles) for q in c.points)
    within = [i for d, i in near if d <= SNAP_TOL]
    target = min(within) if within else None
    if target is None and near:
        d, i = near[0]
        c = cycles[i]
        radius = np.sqrt(2) * SNAP_TOL / (1 - abs(c.multiplier))
        if c.cls in sinks and d <= radius and loop % c.period == 0:
            target = i
    if target is None:
        return KIND_BOUNDED, ""
    if cycles[target].cls in sinks and prev > 0:
        return KIND_TAME, f"C{target}"
    return KIND_BOUNDED, f"C{target}"


def petal_sector(x, m):
    """Index j of the attracting sector of x, or None: the scalar rule of
    ``ParabolicInvariants.sectors``, one axis at a time."""
    if x == 0:
        return None
    for j in range(m):
        theta = (np.pi + 2 * np.pi * j) / m
        if abs(np.angle(x * np.exp(-1j * theta))) <= PETAL_SLACK * np.pi / (2 * m):
            return j
    return None


def scalar_run(tracker, start):
    """The per-step detector loop, one iterate at a time: the oracle."""
    step = tracker.f.step
    seen = {}

    def result(kind, target, steps, stats):
        return {"kind": kind, "target": target, "steps": steps,
                "keys": set(seen), "stats": stats}

    petal_run, petal_prev = {}, {}
    dwell_run = {r.id: 0 for r in tracker.regions}
    z = start.value
    for n in range(tracker.budget + 1):
        if n:
            z = step(z)
        key = _scalar_key(z)
        prev = seen.get(key)
        if prev is not None:
            return result(*landing_rule(tracker.cycles, z, prev, n - prev), n,
                          {"preperiod": prev, "loop": n - prev})
        seen[key] = n
        for i, inv, z0 in tracker.petals:
            u = local_coord(z, z0)
            if u is not None and abs(u) < 0.4:
                x = inv.normal_series(u)
                ax = abs(x)
                ok = 0 < ax < abs(petal_prev.get(i, np.inf)) and (
                    petal_sector(x, inv.e_loc) is not None
                )
                petal_run[i] = petal_run.get(i, 0) + 1 if ok else 0
                petal_prev[i] = ax
                if petal_run[i] >= PETAL_RUN:
                    return result(KIND_TAME, f"C{i}", n, {"|x|": ax})
        for r in tracker.regions:
            if r.contains(z):
                dwell_run[r.id] += 1
                if dwell_run[r.id] >= DWELL_RUN:
                    return result(KIND_TAME, r.id, n, {"dwell": dwell_run[r.id]})
            else:
                dwell_run[r.id] = 0
    chart, coord = chart_coords(z)
    return result(KIND_WILD, "", tracker.budget, {
        "budget": tracker.budget, "last_chart": chart,
        "last_point": [coord.real, coord.imag]})


def _key_int(key):
    """The int64 form of a scalar snap key, as ``ratmap.snap_keys`` packs it."""
    chart, re, im = key
    return (chart == "w") << 62 | (re + 2**30) << 31 | (im + 2**30)


def scalar_tails(f, cycles, anns, budget):
    """Tails as (kind, target, budget_used, final_stats, members) by the
    oracle, merged by set intersection of the scalar keys, and each
    critical orbit's keys as a sorted list of ints."""
    tracker = _OrbitTracker(f, cycles, regions_from_annotations(cycles, anns), budget)
    tails, orbit_keys = [], []
    for pt, mult in f.critical_divisor().entries:
        res = scalar_run(tracker, pt)
        orbit_keys.append(sorted(_key_int(k) for k in res["keys"]))
        for t in tails:
            if (t[0], t[1]) == (res["kind"], res["target"]) and t[5] & res["keys"]:
                t[4].append((pt.to_json(), mult))
                t[5] |= res["keys"]
                break
        else:
            tails.append([res["kind"], res["target"], res["steps"], res["stats"],
                          [(pt.to_json(), mult)], res["keys"]])
    return [t[:5] for t in tails], orbit_keys


def block_tails(f, cycles, anns, budget):
    tails, _ = classify_tails(f, cycles, anns, budget=budget)
    return [[t.classification, t.target, t.budget_used, t.final_stats,
             [(pt.to_json(), m) for pt, m in t.members]] for t in tails]


def block_orbit_keys(f, cycles, anns, budget):
    tracker = _OrbitTracker(f, cycles, regions_from_annotations(cycles, anns), budget)
    return [tracker.run(pt)["keys"].tolist() for pt, _ in f.critical_divisor().entries]


def _corpus_case(name):
    (entry,) = [e for e in load_corpus() if e["name"] == name]
    params = {k: complex(*v) for k, v in entry["params"].items()}
    return entry["map"], params, load_annotations(entry["annotations"]), entry["max_period"]


def _siegel_disc(radius):
    point = [(LAM_G / 2).real, (LAM_G / 2).imag]
    return [Annotation(kind="RotationNumberBrjuno", cycle=point, annulus=(radius,))]


MU_SLOW = 0.9 * np.exp(-1j)  # attracting multiplier: a geometric landing
EQUIVALENCE_MAPS = {
    "super": ("z^2 - 1", None, [], 2),
    "through-inf": ("1/(z^2-1)", None, [], 3),
    "siegel": ("z^2 + c", {"c": C_G}, _siegel_disc(0.05), 1),
    "siegel-dwell": ("z^2 + c", {"c": C_G}, _siegel_disc(0.9), 1),
    "herman": _corpus_case("blaschke-herman"),
    "two-petal": ("z + z^3", None, [], 2),
    "panel-cardioid": ("z^2 + c", {"c": 0.3 / 2 - 0.3**2 / 4}, [], 2),
    "panel-cardioid-slow": ("z^2 + c", {"c": MU_SLOW / 2 - MU_SLOW**2 / 4}, [], 2),
    "four-petal": ("z + z^4", None, [], 1),
    "cubic-nu-(-1-3i)": ("z + z^2 + (2+3i)*z^3", None, [], 1),
    "cubic-nu-2": ("z + z^2 - z^3", None, [], 1),
}
# the parabolic fixed point of z^2 + c at the root of each p/q bulb, q <= 6
for _q in range(2, 7):
    for _p in range(1, _q):
        if np.gcd(_p, _q) == 1:
            _lam = np.exp(2j * np.pi * _p / _q)
            EQUIVALENCE_MAPS[f"bulb-{_p}/{_q}"] = ("z^2 + c", {"c": _lam / 2 - _lam**2 / 4}, [], 1)
# 0, 1 and around the first block boundaries (64, 192, 448 and 960 iterates)
BUDGETS = (0, 1, 63, 64, 65, 191, 192, 193, 447, 448, 959, 960, 961, 2500)


@pytest.fixture(scope="module")
def equivalence_cases():
    cases = {}
    for name, (expr, params, anns, max_period) in EQUIVALENCE_MAPS.items():
        f = parse_map(expr, params)
        cases[name] = (f, analyze_cycles(f, max_period, anns), anns)
    return cases


def fail_at(f, fails):
    """Replace f's orbit kernel entry by one that steps one iterate at a
    time and raises MapError instead of stepping from a z where fails(z)."""

    def iterate(z, n, out):
        for _ in range(n):
            if fails(z):
                raise MapError("0/0 at evaluation: fraction not reduced")
            RationalMap.iterate(f, z, 1, out)
            z = out[-1]

    f.iterate = iterate


class TestBlockTracker:
    @pytest.mark.parametrize("blocks", [(64, 8192), (3, 16)])
    @pytest.mark.parametrize("name", list(EQUIVALENCE_MAPS))
    def test_matches_scalar_loop(self, equivalence_cases, name, blocks, monkeypatch):
        monkeypatch.setattr(orbits, "_BLOCK_FIRST", blocks[0])
        monkeypatch.setattr(orbits, "_BLOCK_MAX", blocks[1])
        f, cycles, anns = equivalence_cases[name]
        for budget in BUDGETS:
            tails, orbit_keys = scalar_tails(f, cycles, anns, budget)
            assert block_tails(f, cycles, anns, budget) == tails, budget
            assert block_orbit_keys(f, cycles, anns, budget) == orbit_keys, budget

    @pytest.mark.parametrize("name", ["super", "through-inf"])
    def test_landing_on_an_earlier_block(self, equivalence_cases, name, monkeypatch):
        # one iterate per block: the landing revisits an earlier block's key
        # in a block that holds no key twice
        monkeypatch.setattr(orbits, "_BLOCK_FIRST", 1)
        monkeypatch.setattr(orbits, "_BLOCK_MAX", 1)
        f, cycles, anns = equivalence_cases[name]
        tails, orbit_keys = scalar_tails(f, cycles, anns, 100)
        assert {t[0] for t in tails} == {KIND_BOUNDED}
        assert block_tails(f, cycles, anns, 100) == tails
        assert block_orbit_keys(f, cycles, anns, 100) == orbit_keys

    def test_every_detector_is_exercised(self, equivalence_cases):
        decided = set()
        for f, cycles, anns in equivalence_cases.values():
            for t in block_tails(f, cycles, anns, BUDGETS[-1]):
                decided.add((t[0], next(iter(t[3]))))
        assert decided == {(KIND_BOUNDED, "preperiod"), (KIND_TAME, "|x|"),
                           (KIND_TAME, "preperiod"), (KIND_TAME, "dwell"),
                           (KIND_WILD, "budget")}

    @pytest.mark.parametrize("expr,critical", [
        ("z^2 - 1", 0.0),  # revisit at step 2
        ("z + z^3", 1j / np.sqrt(3)),  # petal
        ("z^2 - 1/2", 0.0),  # a landing near the attracting fixed point: Tame
    ])
    def test_earlier_detector_wins_a_tie(self, monkeypatch, expr, critical):
        # the orbit stays in the annulus [0, 10] until it lands, so a dwell
        # of n + 1 iterates fires at the landing step n, and a dwell of n before it
        f = parse_map(expr)
        cycles = analyze_cycles(f, 2)
        ring = [Annotation(kind="HermanRing", period=1, annulus=(0.0, 10.0))]
        alone = tail_of(classify_tails(f, cycles, budget=5000)[0], critical)
        n = alone.budget_used
        monkeypatch.setattr(orbits, "DWELL_RUN", n + 1)
        tied = tail_of(classify_tails(f, cycles, ring, budget=5000)[0], critical)
        assert (tied.classification, tied.target, tied.budget_used, tied.final_stats) == (
            alone.classification, alone.target, n, alone.final_stats)
        monkeypatch.setattr(orbits, "DWELL_RUN", n)
        early = tail_of(classify_tails(f, cycles, ring, budget=5000)[0], critical)
        assert (early.target, early.budget_used, early.final_stats) == ("HR0", n - 1, {"dwell": n})

    def test_map_error_after_the_deciding_step_is_not_raised(self, equivalence_cases):
        f, cycles, anns = equivalence_cases["super"]  # 0 -> -1 -> 0 at step 2
        expected = block_tails(f, cycles, anns, 100)
        failing = parse_map("z^2 - 1")
        calls_at_minus_one = iter(range(10**6))
        # the fourth step, f(-1) a second time, raises; the loop stops at step 2
        fail_at(failing, lambda z: z == -1 and next(calls_at_minus_one) >= 1)
        assert block_tails(failing, cycles, anns, 100) == expected

    def test_map_error_before_any_decision_is_raised(self, equivalence_cases):
        f, cycles, anns = equivalence_cases["siegel"]
        failing = parse_map("z^2 + c", {"c": C_G})
        calls = iter(range(10**6))
        fail_at(failing, lambda z: next(calls) >= 100)
        with pytest.raises(MapError):
            classify_tails(failing, cycles, anns, budget=1000)

    def test_an_iterate_whose_modulus_overflows(self):
        # the second iterate of Z_TINY under 1/z + 1/2 has |z| beyond the
        # largest double; the orbit then converges to the attracting fixed point
        f = parse_map("1/z + 0.5")
        cycles = analyze_cycles(f, 1)
        for budget in (1, 2, 100):
            tracker = _OrbitTracker(f, cycles, [], budget)
            got, want = tracker.run(SpherePoint(Z_TINY)), scalar_run(tracker, SpherePoint(Z_TINY))
            assert (got["kind"], got["target"], got["steps"], got["stats"]) == (
                want["kind"], want["target"], want["steps"], want["stats"])
            assert got["keys"].tolist() == sorted(_key_int(k) for k in want["keys"])
        assert (got["kind"], got["target"]) == (KIND_TAME, "C1")

    def test_orbit_keys_are_sorted_int64(self, equivalence_cases):
        f, cycles, anns = equivalence_cases["through-inf"]
        (t,) = classify_tails(f, cycles, anns, budget=100)[0]
        assert t.orbit_keys.dtype == np.int64 and len(t.orbit_keys) == 3
        assert (np.diff(t.orbit_keys) > 0).all()


class TestPetalSectors:
    """``ParabolicInvariants.sectors`` against the scalar rule ``petal_sector``."""

    @staticmethod
    def package(m):
        inv = tangency_and_residu(parse_map(f"z + z^{m + 1}"), 0.0, 1, 1)
        assert inv.e_loc == m
        return inv

    @staticmethod
    def scalar(x, m):
        return [-1 if j is None else j for j in (petal_sector(v, m) for v in x)]

    @pytest.mark.parametrize("m", range(1, 6))
    def test_random_points(self, m):
        rng = np.random.default_rng(m)
        x = rng.normal(size=(10_000, 2)) @ [1, 1j] * np.exp(rng.uniform(-30, 5, 10_000))
        x = np.concatenate([x, [0j, complex(-0.0, -0.0), 1, -1, 1j, -1j]])
        assert self.package(m).sectors(x).tolist() == self.scalar(x, m)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_points_near_the_sector_edges(self, m):
        # edges at the attracting axes +- PETAL_SLACK pi/(2m); a point at
        # least 1e-12 rad from an edge falls on the same side under both rules
        rng = np.random.default_rng(10 + m)
        axes = (np.pi + 2 * np.pi * np.arange(m)) / m
        edges = np.concatenate([axes - PETAL_SLACK * np.pi / (2 * m),
                                axes + PETAL_SLACK * np.pi / (2 * m)])
        gap = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), 4000))
        angle = rng.choice(edges, 4000) + rng.choice([-1, 1], 4000) * gap
        x = np.exp(rng.uniform(-10, 2, 4000) + 1j * angle)
        got = self.package(m).sectors(x)
        assert got.tolist() == self.scalar(x, m)
        assert 0 < np.count_nonzero(got >= 0) < got.size
