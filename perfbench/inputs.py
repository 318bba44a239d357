"""Seeded inputs of the four workloads, as plain data.

Nothing here imports ratdyn: the same description feeds the program (map
expressions and parameters) and the oracles in checks.py (coefficient
lists, multipliers, closed forms).  The same seed gives the same inputs.

Ops that fail today because of a named fault use fixed inputs, never
seeded ones, so every run fails the same ops whatever the seed.
"""

from __future__ import annotations

import cmath
import random

LATTES = "(z^2+1)^2 / (4*z^3 - 4*z)"
LATTES_NUM = [1, 0, 2, 0, 1]
LATTES_DEN = [0, -4, 0, 4]

# Cheap packaged corpus entries (well under 0.1 s each); the cli workload
# replays one of them, chosen by the seed.
CHEAP_ENTRIES = (
    "quad-parabolic-fixed",
    "quad-parabolic-order2",
    "petal-one",
    "petal-two",
    "lattes-deg4",
    "mobius-parabolic",
)


def _pair(z):
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def quadratic_with_multiplier(family, mu):
    """c such that z^2 + c has an attracting fixed point ("cardioid") or
    2-cycle ("bulb") of multiplier mu."""
    if family == "cardioid":
        return mu / 2 - mu * mu / 4
    return -1 + mu / 4


def _quadratic_entry(name, family, mu, tail_check):
    c = quadratic_with_multiplier(family, mu)
    return {
        "name": name,
        "map": "z^2 + c",
        "params": {"c": _pair(c)},
        "max_period": 2,
        "c": _pair(c),
        "mu": _pair(mu),
        "tail_check": tail_check,
    }


# Fixed members of the same two families.  The tail check runs on these
# only: today the tail of 0 comes back Bounded for the small-|mu| cardioid
# map and for every 2-bulb map, so on seeded maps the check would pass or
# fail depending on the seed.
TAIL_PANEL = (
    ("cardioid", 0.3 + 0j),
    ("cardioid", cmath.rect(0.6, 2.0)),
    ("cardioid", cmath.rect(0.9, -1.0)),
    ("bulb", 0.3j),
    ("bulb", 0.6 + 0j),
    ("bulb", cmath.rect(0.9, 2.5)),
)


def pipeline_inputs(seed):
    """Generated corpus entries: 6 seeded quadratics and the fixed panel.

    The packaged entries are added by the worker from the installed corpus.
    """
    rng = random.Random(seed)
    out = []
    for k in range(6):
        family = "cardioid" if k % 2 == 0 else "bulb"
        mu = cmath.rect(rng.uniform(0.3, 0.9), rng.uniform(0.0, 2 * cmath.pi))
        out.append(_quadratic_entry(f"gen-{family}-{k}", family, mu, False))
    for k, (family, mu) in enumerate(TAIL_PANEL):
        out.append(_quadratic_entry(f"panel-{family}-{k}", family, mu, True))
    return out


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def _cycle_op(name, expr, params, num, den, period, kind="generic", closed=None):
    return {
        "name": name,
        "map": expr,
        "params": {k: _pair(complex(v)) for k, v in params.items()},
        "num": [_pair(complex(c)) for c in num],
        "den": [_pair(complex(c)) for c in den],
        "period": period,
        "kind": kind,
        "closed": closed or [],
    }


def cycles_inputs(seed):
    """Generic maps at the highest period every seed passes today, the
    parabolic closed-form maps, and the fixed ops of the NaN-root fault."""
    rng = random.Random(seed)
    ops = []
    for k in range(10):
        c = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        ops.append(_cycle_op(f"quad-{k}", "z^2 + c", {"c": c}, [c, 0, 1], [1], 5))
    for k in range(4):
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ops.append(_cycle_op(f"cubic-{k}", "z^3 + c", {"c": c}, [c, 0, 0, 1], [1], 3))
    coef = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6)]
    names = ("a0", "a1", "a2", "b0", "b1", "b2")
    ops.append(_cycle_op(
        "rational", "(a0 + a1*z + a2*z^2)/(b0 + b1*z + b2*z^2)",
        dict(zip(names, coef)), coef[:3], coef[3:], 2,
    ))
    ops.append(_cycle_op("lattes", LATTES, {}, LATTES_NUM, LATTES_DEN, 2))
    # closed forms: [point, {field: value}]
    ops.append(_cycle_op("parabolic-quarter", "z^2 + 1/4", {}, [0.25, 0, 1], [1], 3,
                         "parabolic", [[0.5, {"multiplier": 1, "r": 1, "e_loc": 1, "nu": 1}]]))
    ops.append(_cycle_op("parabolic-basilica-root", "z^2 - 3/4", {}, [-0.75, 0, 1], [1], 3,
                         "parabolic", [[-0.5, {"multiplier": -1, "r": 2, "e_loc": 2}]]))
    ops.append(_cycle_op("petal-one", "z + z^2", {}, [0, 1, 1], [1], 3,
                         "parabolic", [[0.0, {"multiplier": 1, "nu": 1}]]))
    ops.append(_cycle_op("petal-two", "z + z^3", {}, [0, 1, 0, 1], [1], 3,
                         "parabolic", [[0.0, {"multiplier": 1, "e_loc": 2, "nu": 1.5}]]))
    # fail today: poly_roots returns NaN roots at degree ~64 and above
    ops.append(_cycle_op("nan-quad-p6", "z^2 - 1", {}, [-1, 0, 1], [1], 6))
    ops.append(_cycle_op("nan-cubic-p5", "z^3 + 0.3", {}, [0.3, 0, 0, 1], [1], 5))
    ops.append(_cycle_op("nan-lattes-p3", LATTES, {}, LATTES_NUM, LATTES_DEN, 3))
    return ops


# ---------------------------------------------------------------------------
# residue
# ---------------------------------------------------------------------------


def residue_inputs(seed):
    """Disc family at linear and quadratic maps, fatou family at parabolic
    points with closed-form nu, all at the fixed point 0.  Inputs are
    fixed; the seed orders them."""
    ops = [
        {"name": "disc-2z", "map": "2*z", "num": [0, 2], "form": "1/z",
         "kind": "disc", "lam": 2.0, "tol": 1e-3},
        {"name": "disc-z/2", "map": "z/2", "num": [0, 0.5], "form": "1/z",
         "kind": "disc", "lam": 0.5, "tol": 1e-3},
        {"name": "disc-3z+z^2", "map": "3*z + z^2", "num": [0, 3, 1], "form": "1/z",
         "kind": "disc", "lam": 3.0, "tol": 2e-3},
    ]
    for a in (0, 1):
        nu = 1 - a
        ops.append({"name": f"fatou-a{a}", "map": f"z + z^2 + {a}*z^3",
                    "num": [0, 1, 1, a], "form": f"(1 + {nu}*z)/z^2",
                    "kind": "fatou", "nu": nu})
    ops.append({"name": "fatou-two-petal", "map": "z + z^3", "num": [0, 1, 0, 1],
                "form": "(1 + 1.5*z^2)/z^3", "kind": "fatou", "nu": 1.5})
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli_inputs(seed):
    """One invocation per subcommand on the README examples (two for ext),
    one cheap corpus entry chosen by the seed, and one malformed map.

    "{tmp}" in an argument stands for the run's temporary directory.
    """
    entry = random.Random(seed).choice(CHEAP_ENTRIES)
    ops = [
        {"name": "parse", "sub": "parse",
         "argv": ["parse", "--map", "z^2 - 1", "--ppm", "{tmp}/julia.ppm"],
         "exit": 0, "degree": 2, "ppm_size": 256},
        {"name": "cycles", "sub": "cycles",
         "argv": ["cycles", "--map", "z^2 + c", "--param", "c=0.25+0i",
                  "--max-period", "2"],
         "exit": 0},
        {"name": "parabolic", "sub": "parabolic",
         "argv": ["parabolic", "--map", "z + z^3", "--max-period", "1"],
         "exit": 0},
        {"name": "residue", "sub": "residue",
         "argv": ["residue", "--map", "2*z", "--form", "1/z", "--family", "disc",
                  "--trace-csv", "{tmp}/trace.csv"],
         "exit": 0},
        {"name": "tails", "sub": "tails",
         "argv": ["tails", "--map", "z^2 - 1", "--max-period", "2",
                  "--budget", "100000"],
         "exit": 0},
        {"name": "ext-global", "sub": "ext",
         "argv": ["ext", "--map", "z + z^2"], "exit": 0, "dims": [0, 2]},
        {"name": "ext-jet", "sub": "ext",
         "argv": ["ext", "--map", "z + z^2", "--point", "0", "--jet-order", "6"],
         "exit": 0, "dims": [1, 2]},
        {"name": "count", "sub": "count",
         "argv": ["count", "--map", "z + z^2", "--max-period", "2", "--table"],
         "exit": 0},
        {"name": "corpus-run", "sub": "corpus-run",
         "argv": ["corpus-run", "--only", entry], "exit": 0},
        {"name": "error", "sub": "error",
         "argv": ["parse", "--map", "z^^2 +"], "exit": 2},
    ]
    random.Random(seed + 1).shuffle(ops)
    return ops

