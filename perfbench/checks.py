"""Independent oracles for the benchmark's outputs.

Nothing here imports ratdyn.  Every check takes plain data (numbers,
lists and dicts as the program's JSON reports give them) and compares it
with a closed form, an identity or a computation done here in plain
Python.  Each check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import cmath
import json
import math

NU_IDENTITY_TOL = 1e-9
MULTIPLIER_TOL = 1e-8
ORBIT_TOL = 1e-6
INDEX_TOL = 1e-6
CLOSURE_TOL = 1e-7


def as_complex(pair):
    """A JSON [re, im] pair (or a number) as a Python complex."""
    if isinstance(pair, (list, tuple)):
        return complex(pair[0], pair[1])
    return complex(pair)


# ---------------------------------------------------------------------------
# Maps in plain Python: homogeneous evaluation on the sphere
# ---------------------------------------------------------------------------


def _trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class PlainMap:
    """f = num/den from ascending coefficient lists, evaluated projectively.

    A point of the sphere is a pair (x, y) standing for x/y; infinity is
    (1, 0).  f([x:y]) = [N(x, y) : D(x, y)] with N, D homogenized to the
    degree d = max(deg num, deg den), so infinity needs no special case.
    """

    def __init__(self, num, den=(1,)):
        self.num = _trim([complex(c) for c in num])
        self.den = _trim([complex(c) for c in den])
        self.degree = max(len(self.num), len(self.den)) - 1

    def _hom(self, coeffs, x, y):
        d = self.degree
        return sum(c * x**k * y ** (d - k) for k, c in enumerate(coeffs))

    def step(self, pt):
        x, y = pt
        u, v = self._hom(self.num, x, y), self._hom(self.den, x, y)
        s = max(abs(u), abs(v))
        if s == 0 or not math.isfinite(s):
            raise ArithmeticError("orbit left the sphere")
        return (u / s, v / s)

    def iterate(self, pt, n):
        for _ in range(n):
            pt = self.step(pt)
        return pt


def sphere_point(obj):
    """A report's point ("inf" or [re, im]) as a projective pair."""
    if obj == "inf":
        return (1 + 0j, 0j)
    return (as_complex(obj), 1 + 0j)


def chordal(p, q):
    """Chordal distance between projective pairs (at most 1)."""
    (x1, y1), (x2, y2) = p, q
    n1 = math.hypot(abs(x1), abs(y1))
    n2 = math.hypot(abs(x2), abs(y2))
    return abs(x1 * y2 - x2 * y1) / (n1 * n2)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def check_nu_identity(packages, tol=NU_IDENTITY_TOL):
    """nu = (e_loc + 1)/2 - index for every parabolic package."""
    problems = []
    for key, pkg in packages.items():
        nu = as_complex(pkg["nu"])
        rhs = (pkg["e_loc"] + 1) / 2 - as_complex(pkg["index"])
        if not abs(nu - rhs) <= tol:
            problems.append(f"{key}: nu={nu} but (e+1)/2-index={rhs}")
    return problems


def check_critical_total(tails, degree):
    """Critical multiplicities over all tails add up to 2d - 2."""
    total = sum(m["multiplicity"] for t in tails for m in t["members"])
    if total != 2 * degree - 2:
        return [f"critical multiplicities sum to {total}, not {2 * degree - 2}"]
    return []


def check_counts(counts):
    """Both counting inequalities hold, recomputed from the reported sides."""
    if counts is None:
        return ["no count report"]
    problems = []
    for tag in ("v", "i"):
        lhs, rhs = counts[f"lhs_{tag}"], counts[f"rhs_{tag}"]
        if not lhs <= rhs:
            problems.append(f"{tag}-count violated: {lhs} > {rhs}")
        if counts[f"satisfied_{tag}"] is not (lhs <= rhs):
            problems.append(f"{tag}-count flag disagrees with {lhs} <= {rhs}")
    return problems


def cycle_with_multiplier(cycles, mu, tol=MULTIPLIER_TOL):
    """Index of the reported cycle whose multiplier is mu to tol, or None."""
    for i, c in enumerate(cycles):
        if abs(as_complex(c["multiplier"]) - mu) <= tol:
            return i
    return None


def plain_critical_orbit(c, n=20000):
    """Iterate 0 -> z^2 + c in plain Python; the last two iterates."""
    z = 0j
    prev = z
    for _ in range(n):
        prev, z = z, z * z + c
    return prev, z


def check_quadratic_target(report, c, mu, tol=ORBIT_TOL):
    """z^2 + c has a cycle of multiplier mu that the plain orbit of 0 reaches."""
    i = cycle_with_multiplier(report["cycles"], mu)
    if i is None:
        return [f"no cycle with multiplier {mu}"], None
    pts = [as_complex(p) for p in report["cycles"][i]["points"]]
    end = plain_critical_orbit(c)
    gap = max(min(abs(z - p) for p in pts) for z in end)
    if not gap <= tol:
        return [f"plain orbit of 0 ends {gap:.3g} from cycle C{i}"], i
    return [], i


def check_tame_tail(report, target_index):
    """The tail holding critical point 0 is Tame and aims at cycle C<i>."""
    for t in report["tails"]:
        if any(m["point"] != "inf" and abs(as_complex(m["point"])) < 1e-12
               for m in t["members"]):
            if t["classification"] != "Tame" or t["target"] != f"C{target_index}":
                return [
                    f"tail of 0 is {t['classification']} {t['target']!r}, "
                    f"expected Tame 'C{target_index}'"
                ]
            return []
    return ["no tail holds critical point 0"]


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def check_finite(cycles):
    problems = []
    for i, c in enumerate(cycles):
        vals = [as_complex(c["multiplier"])] + [
            as_complex(p) for p in c["points"] if p != "inf"
        ]
        if not all(cmath.isfinite(v) for v in vals):
            problems.append(f"C{i} has a non-finite point or multiplier")
    return problems


def check_point_count(cycles, p, degree):
    """Sum of q over cycles of period q | p is d^p + 1 (generic maps)."""
    total = sum(c["period"] for c in cycles if p % c["period"] == 0)
    if total != degree**p + 1:
        return [f"{total} fixed points of f^{p}, expected {degree**p + 1}"]
    return []


def check_index_identity(cycles, p, tol=INDEX_TOL):
    """Holomorphic index formula over the fixed points of f^p (all simple).

    sum over cycles of period q | p of q / (1 - lambda_q^(p/q)) equals 1,
    to tol relative to the largest term (Milnor, Thm 12.4).
    """
    terms = []
    for c in cycles:
        q = c["period"]
        if p % q:
            continue
        lam = as_complex(c["multiplier"]) ** (p // q)
        if lam == 1:
            return [f"multiple fixed point of f^{p}; the identity needs its index"]
        terms.append(q / (1 - lam))
    total = sum(terms)
    scale = max([1.0] + [abs(t) for t in terms])
    if not abs(total - 1) <= tol * scale:
        return [f"index sum over fixed points of f^{p} is {total}, not 1"]
    return []


def check_closure(cycles, fmap: PlainMap, tol=CLOSURE_TOL):
    """Every reported point of a period-q cycle is fixed by f^q.

    An error d in a computed point comes back from f^q about |lambda| d
    away, so the chordal gap may reach tol * max(1, |lambda|).
    """
    problems = []
    for i, c in enumerate(cycles):
        allowed = tol * max(1.0, abs(as_complex(c["multiplier"])))
        for pt in c["points"]:
            z = sphere_point(pt)
            try:
                gap = chordal(fmap.iterate(z, c["period"]), z)
            except ArithmeticError as exc:
                problems.append(f"C{i}: {exc}")
                continue
            if not gap <= allowed:
                problems.append(f"C{i} point {pt}: f^{c['period']} moves it {gap:.3g}")
    return problems


def check_parabolic_closed_form(cycles, point, want):
    """The cycle through `point` carries a parabolic package matching `want`.

    want maps any of "multiplier", "r", "e_loc", "nu" to closed-form values.
    """
    for c in cycles:
        if any(p != "inf" and abs(as_complex(p) - point) <= 1e-6 for p in c["points"]):
            pkg = c.get("parabolic")
            if pkg is None:
                return [f"cycle through {point} has no parabolic package"]
            problems = []
            for key, value in want.items():
                got = c["multiplier"] if key == "multiplier" else pkg[key]
                if key in ("r", "e_loc"):
                    ok = got == value
                else:
                    ok = abs(as_complex(got) - value) <= 1e-6
                if not ok:
                    problems.append(f"{key} at {point}: {got}, expected {value}")
            return problems
    return [f"no cycle through {point}"]


# ---------------------------------------------------------------------------
# residue
# ---------------------------------------------------------------------------


def check_disc_residue(estimate, lam, tol):
    """Disc family for a fixed point of multiplier lam: log |lam|^2."""
    want = math.log(abs(lam) ** 2)
    if not abs(estimate["value"] - want) <= tol:
        return [f"disc residue {estimate['value']}, expected log|lam|^2 = {want}"]
    return []


def check_fatou_residue(estimate, nu):
    """Fatou family: within 5 % of Re nu or of 2 Re nu (0.05 when nu = 0)."""
    value, re_nu = estimate["value"], complex(nu).real
    if re_nu == 0:
        ok = abs(value) <= 0.05
    else:
        ok = any(abs(value - k * re_nu) <= 0.05 * abs(k * re_nu) for k in (1, 2))
    if not ok:
        return [f"fatou residue {value}, expected Re nu or 2 Re nu = {re_nu}"]
    return []


def check_reliable(estimate):
    if estimate["reliable"] is not True:
        return ["estimate flagged unreliable: " + "; ".join(estimate["notes"])]
    return []


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def check_exit(code, want):
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_ppm(data, size):
    """Binary PPM of size x size: header and byte count."""
    header = b"P6\n%d %d\n255\n" % (size, size)
    if not data.startswith(header):
        return ["PPM header is wrong"]
    if len(data) != len(header) + 3 * size * size:
        return [f"PPM has {len(data)} bytes, expected {len(header) + 3 * size * size}"]
    return []


def check_parse_report(report, degree):
    problems = []
    if report["degree"] != degree:
        problems.append(f"degree {report['degree']}, expected {degree}")
    total = sum(e["multiplicity"] for e in report["critical_divisor"]["entries"])
    if total != 2 * degree - 2:
        problems.append(f"critical divisor total {total}, expected {2 * degree - 2}")
    return problems


def check_trace_csv(text, n_regions):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "param,value":
        return ["trace CSV header is wrong"]
    if len(lines) - 1 != n_regions:
        return [f"trace CSV has {len(lines) - 1} rows, expected {n_regions}"]
    return []


def check_all_bounded(report):
    bad = [t["classification"] for t in report["tails"] if t["classification"] != "Bounded"]
    return [f"tails {bad} should all be Bounded"] if bad else []


def check_dims(obj, ker, coker):
    if (obj["ker"], obj["coker"]) != (ker, coker):
        return [f"(ker, coker) = ({obj['ker']}, {obj['coker']}), expected ({ker}, {coker})"]
    return []


def check_error_stream(text):
    """Exactly one JSON error object on stderr."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        return [f"stderr has {len(lines)} lines, expected one JSON object"]
    try:
        obj = json.loads(lines[0])
    except ValueError:
        return ["stderr line is not JSON"]
    if not isinstance(obj, dict) or set(obj) != {"error", "message"}:
        return ["stderr JSON is not an error object"]
    return []
