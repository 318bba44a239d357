"""Command-line front end.

Subcommands mirror the library pipeline: ``parse``, ``cycles``,
``parabolic``, ``residue``, ``tails``, ``ext``, ``count`` each run one
stage and emit a JSON report to stdout (or ``--out``); ``corpus-run``
replays every packaged corpus entry against its frozen expectations.

Exit codes: 0 success, 1 expectation miss / inequality violation,
2 input error (with a machine-readable error object on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .corpus import _bind_params, corpus_run, load_corpus, run_pipeline
from .count import CountError
from .cycles import CycleError, analyze_cycles, load_annotations
from .extjet import FULL_JETS, TWO_JETS, JetSpec, jet_e1
from .orbits import DEFAULT_BUDGET, orbit_transcript_rows
from .parabolic import ParabolicError
from .parser import ParseError
from .ratmap import MapError, RationalMap, SpherePoint, parse_map
from .residue import (
    QUAD_BUDGET,
    FormDensity,
    ResidueError,
    dynamical_residue,
    trace_csv_rows,
)

INPUT_ERRORS = (
    ParseError,
    MapError,
    CycleError,
    ParabolicError,
    ResidueError,
    CountError,
    ValueError,
    OSError,
    KeyError,
)


def _parse_complex(text):
    """Parse a complex scalar: '0.25', '-1+2i', '1j', 'inf' not allowed here."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}") from exc


def _parse_point(text):
    if text.strip() == "inf":
        return SpherePoint.infinity()
    return SpherePoint(_parse_complex(text))


def _params(args):
    """Bindings of the repeatable --param NAME=VALUE."""
    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        params[name.strip()] = _parse_complex(val)
    return params


def _load_map(args):
    params = _params(args)
    if args.map_file:
        with open(args.map_file) as fh:
            obj = json.load(fh)
        if "map" in obj:
            return parse_map(obj["map"], {**_bind_params(obj.get("params")), **params})
        return RationalMap.from_json(obj)
    if args.map:
        return parse_map(args.map, params)
    raise ValueError("a map is required: pass --map or --map-file")


def _load_annotations(args):
    if not getattr(args, "annot", None):
        return []
    with open(args.annot) as fh:
        return load_annotations(json.load(fh))


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# Diagnostic raster
# ---------------------------------------------------------------------------


def write_escape_raster(f, path, size=256, window=(-2.0, 2.0, -2.0, 2.0),
                        max_iter=60, escape_radius=1e6):
    """8-bit binary PPM escape-time image (visual sanity only).

    Grayscale level is the fraction of the iteration budget spent before
    the orbit left the escape radius (black = never escaped).
    """
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, size)
    ys = np.linspace(y1, y0, size)  # row-major: top row = max imag
    z = xs[None, :] + 1j * ys[:, None]
    count = np.zeros(z.shape, dtype=int)
    alive = np.ones(z.shape, dtype=bool)
    num, den = f.num, f.den
    with np.errstate(all="ignore"):
        for k in range(max_iter):
            z = np.where(alive, num(z) / den(z), z)
            bad = ~np.isfinite(z) | (np.abs(z) > escape_radius)
            count[alive & bad] = k + 1
            alive &= ~bad
    gray = np.where(count > 0, (255 * count) // max_iter, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (size, size))
        fh.write(np.repeat(gray[:, :, None], 3, axis=2).tobytes())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args):
    f = _load_map(args)
    out = f.to_json()
    out["degree"] = f.degree
    ram = f.critical_divisor()
    out["critical_divisor"] = ram.to_json()
    if args.ppm:
        write_escape_raster(f, args.ppm, size=args.ppm_size)
        out["raster"] = args.ppm
    _emit(out, args)
    return 0


def _cmd_cycles(args):
    f = _load_map(args)
    anns = _load_annotations(args)
    cycles = analyze_cycles(f, args.max_period, anns)
    _emit({"degree": f.degree, "cycles": [c.to_json() for c in cycles]}, args)
    return 0


def _cmd_parabolic(args):
    f = _load_map(args)
    anns = _load_annotations(args)
    cycles = analyze_cycles(f, args.max_period, anns)
    packages = {
        f"C{i}": c.parabolic.to_json()
        for i, c in enumerate(cycles)
        if c.parabolic is not None
    }
    _emit({"parabolic": packages}, args)
    return 0


def _cmd_residue(args):
    f = _load_map(args)
    mu = FormDensity.parse(args.form, m=args.form_order, params=_params(args))
    family_params = (
        [float(x) for x in args.family_param] if args.family_param else None
    )
    est = dynamical_residue(
        f,
        mu,
        kind=args.family,
        center=_parse_complex(args.center),
        params=family_params,
        budget=args.budget,
    )
    if args.trace_csv:
        rows = trace_csv_rows(est)
        _write_csv(args.trace_csv, rows[0], rows[1:])
    _emit(est.to_json(), args)
    return 0


def _cmd_tails(args):
    f = _load_map(args)
    run = run_pipeline(f, _load_annotations(args), args.max_period, args.budget)
    out = {
        "tails": [t.to_json() for t in run.tails],
        "split": run.split.to_json(),
        "epsilons": run.epsilons,
        "deltas": run.deltas,
    }
    if args.orbit_csv and args.orbit_from:
        rows = orbit_transcript_rows(
            f, _parse_point(args.orbit_from), args.orbit_len
        )
        _write_csv(args.orbit_csv, ("iterate", "re", "im", "chart"), rows)
    _emit(out, args)
    return 0


def _cmd_ext(args):
    f = _load_map(args)
    if args.point is None:
        spec = JetSpec(site="global")
    else:
        spec = JetSpec(
            site="cycle",
            point=_parse_point(args.point),
            period=args.period,
            order=args.jet_order,
            jet_kind=TWO_JETS if args.two_jets else FULL_JETS,
        )
    ker, coker, stabilized = jet_e1(f, spec, r=args.rot_order)
    if spec.site == "global":
        _emit({"global": {"ker": ker, "coker": coker}}, args)
    else:
        _emit(
            {
                "jet": {
                    "ker": ker,
                    "coker": coker,
                    "stabilized": stabilized,
                    "order": args.jet_order,
                    "period": args.period,
                }
            },
            args,
        )
    return 0


def _cmd_count(args):
    run = run_pipeline(_load_map(args), _load_annotations(args), args.max_period, args.budget)
    if run.count_error is not None:
        raise run.count_error
    rep = run.counts
    if args.table:
        print(rep.table())
    else:
        _emit(rep.to_json(), args)
    return 0 if (rep.satisfied_v and rep.satisfied_i) else 1


def _cmd_corpus_run(args):
    entries = load_corpus(args.corpus_file)
    res = corpus_run(entries, budget=args.budget, names=args.only or None)
    _emit(res, args)
    return 0 if res["all_passed"] else 1


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_map_args(sp):
    sp.add_argument("--map", help="map expression in z, e.g. 'z^2 + c'")
    sp.add_argument("--map-file", help="JSON file: coefficients or expression")
    sp.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="parameter binding (complex; repeatable)",
    )
    sp.add_argument("--out", help="write the JSON report here instead of stdout")


def _add_pipeline_args(sp):
    sp.add_argument("--annot", help="annotations JSON file")
    sp.add_argument("--max-period", type=int, default=3)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="orbit iteration budget per critical point")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ratdyn",
        description="Dynamical invariants of rational self-maps of the sphere.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a map; report degree and criticals")
    _add_map_args(sp)
    sp.add_argument("--ppm", help="write an escape-time PPM raster here")
    sp.add_argument("--ppm-size", type=int, default=256)
    sp.set_defaults(fn=_cmd_parse)

    sp = sub.add_parser("cycles", help="enumerate and classify cycles")
    _add_map_args(sp)
    _add_pipeline_args(sp)
    sp.set_defaults(fn=_cmd_cycles)

    sp = sub.add_parser("parabolic", help="parabolic invariants of all cycles")
    _add_map_args(sp)
    _add_pipeline_args(sp)
    sp.set_defaults(fn=_cmd_parabolic)

    sp = sub.add_parser("residue", help="numerical dynamical residue")
    _add_map_args(sp)
    sp.add_argument("--form", required=True,
                    help="Laurent coefficient W as an expression in z")
    sp.add_argument("--form-order", type=int, default=1,
                    help="order m of the density |W|^(2/m)")
    sp.add_argument("--family", choices=("fatou", "disc"), default="fatou")
    sp.add_argument("--family-param", action="append", metavar="VALUE",
                    help="region size parameter (repeatable; default schedule)")
    sp.add_argument("--center", default="0", help="fixed point (complex)")
    sp.add_argument("--budget", type=int, default=QUAD_BUDGET,
                    help="density evaluations per region for the node doubling")
    sp.add_argument("--trace-csv", help="write the parameter trace CSV here")
    sp.set_defaults(fn=_cmd_residue)

    sp = sub.add_parser("tails", help="critical-orbit tails and marks")
    _add_map_args(sp)
    _add_pipeline_args(sp)
    sp.add_argument("--orbit-csv", help="also dump one orbit transcript CSV")
    sp.add_argument("--orbit-from", help="start point for the transcript")
    sp.add_argument("--orbit-len", type=int, default=100)
    sp.set_defaults(fn=_cmd_tails)

    sp = sub.add_parser("ext", help="equalizer kernel/cokernel dimensions")
    _add_map_args(sp)
    sp.add_argument("--point", help="cycle point (omit for the global operator)")
    sp.add_argument("--period", type=int, default=1)
    sp.add_argument("--rot-order", type=int, default=1,
                    help="fold in this root-of-unity order via the first return")
    sp.add_argument("--jet-order", type=int, default=6)
    sp.add_argument("--two-jets", action="store_true",
                    help="truncate at 2-jets instead of the full jet order")
    sp.set_defaults(fn=_cmd_ext)

    sp = sub.add_parser("count", help="audit the counting inequalities")
    _add_map_args(sp)
    _add_pipeline_args(sp)
    sp.add_argument("--table", action="store_true",
                    help="human-readable table instead of JSON")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("corpus-run", help="replay the packaged corpus")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")
    sp.add_argument("--corpus-file", help="alternative corpus JSON file")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--only", action="append", metavar="NAME",
                    help="restrict to named entries (repeatable)")
    sp.set_defaults(fn=_cmd_corpus_run)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
