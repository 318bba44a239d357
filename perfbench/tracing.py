"""Spans and counts around the calls into ratdyn's modules, from outside.

A Tracer wraps public functions and methods of the ratdyn modules.
Modules bind imported names themselves (``ratmap`` and ``cycles`` import
``poly_roots``, ``corpus`` and ``cli`` import ``classify_tails``), so a
wrapped function replaces the original in every ratdyn namespace that
holds it; methods are wrapped on their class.

Every call adds its duration to its layer's total and, minus the time of
the wrapped calls it made, to the layer's self time.  Calls of the hot
leaf functions (``RationalMap.evaluate`` runs about 400 k times per
pipeline pass) are only aggregated; every other call is also kept as a
span (id, name, start, end, parent id).  Everything stays in memory
until ``dump``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import sys
import time

# label, module, qualified name, keep spans
TARGETS = (
    ("kernel.poly_roots", "ratdyn.kernel", "poly_roots", True),
    ("ratmap.parse_map", "ratdyn.ratmap", "parse_map", True),
    ("ratmap.evaluate", "ratdyn.ratmap", "RationalMap.evaluate", False),
    ("ratmap.compose_self_homogeneous", "ratdyn.ratmap",
     "RationalMap.compose_self_homogeneous", True),
    ("series.compose", "ratdyn.series", "TruncatedSeries.compose", False),
    ("series.inverse", "ratdyn.series", "TruncatedSeries.inverse", False),
    ("parabolic.tangency_and_residu", "ratdyn.parabolic", "tangency_and_residu", True),
    ("cycles.analyze_cycles", "ratdyn.cycles", "analyze_cycles", True),
    ("orbits.classify_tails", "ratdyn.orbits", "classify_tails", True),
    ("residue.dynamical_residue", "ratdyn.residue", "dynamical_residue", True),
    ("residue.disc_region", "ratdyn.residue", "disc_residue", True),
    ("residue.fatou_region", "ratdyn.residue", "FatouBoxModel.residue", True),
    ("residue.indicator", "ratdyn.residue", "FatouBoxModel.indicator_diff", True),
    ("residue.in_region", "ratdyn.residue", "FatouBoxModel.in_region", False),
    ("residue.density", "ratdyn.residue", "FormDensity.density", False),
    ("extjet.jet_e1", "ratdyn.extjet", "jet_e1", True),
    ("count.evaluate_counts", "ratdyn.count", "evaluate_counts", True),
    ("corpus.corpus_run", "ratdyn.corpus", "corpus_run", True),
    ("corpus.entry", "ratdyn.corpus", "run_entry", True),
)


def _size(z):
    return int(getattr(z, "size", 1))


def _count_poly_roots(counts, args, result):
    p = args[0]
    degree = getattr(p, "degree", None)
    if degree is None:
        degree = len(p) - 1
    counts["kernel.poly_roots.max_degree"] = max(
        counts["kernel.poly_roots.max_degree"], int(degree)
    )
    counts["kernel.poly_roots.nonfinite"] += sum(
        1 for root, _ in result if not (math.isfinite(root.real) and math.isfinite(root.imag))
    )


def _count_points(counts, args, result):
    counts["cycles.points"] += sum(len(c.points) for c in result)


def _count_steps(counts, args, result):
    counts["orbits.steps"] += sum(t.budget_used for t in result[0])


def _count_unreliable(counts, args, result):
    counts["residue.unreliable"] += 0 if result.reliable else 1


def _count_region(counts, args, result):
    counts["residue.regions"] += 1


def _count_in_region(counts, args, result):
    counts["residue.in_region.points"] += _size(args[1])


def _count_density(counts, args, result):
    counts["residue.density.points"] += _size(args[1])


HOOKS = {
    "kernel.poly_roots": _count_poly_roots,
    "cycles.analyze_cycles": _count_points,
    "orbits.classify_tails": _count_steps,
    "residue.dynamical_residue": _count_unreliable,
    "residue.disc_region": _count_region,
    "residue.fatou_region": _count_region,
    "residue.in_region": _count_in_region,
    "residue.density": _count_density,
}


def _entry_label(args, kwargs):
    entry = args[0] if args else kwargs["entry"]
    return f"corpus.entry.{entry['name']}"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self.layers = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = collections.Counter()
        self._child_time = []  # one accumulator per open call
        self._open_span = None
        self._next_id = 0
        self._undo = []

    def wrap(self, label, fn, keep_span):
        tracer = self
        hook = HOOKS.get(label)
        name_of = _entry_label if label == "corpus.entry" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else label
            parent = tracer._open_span
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._open_span = span_id
            tracer._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1] += end - start
                agg = tracer.layers[name]
                agg[0] += 1
                agg[1] += end - start
                agg[2] += end - start - child
                if keep_span:
                    tracer.spans.append((span_id, name, start, end, parent))
                    tracer._open_span = parent
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every ratdyn namespace that binds it."""
        for label, modname, qualname, keep_span in TARGETS:
            module = importlib.import_module(modname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(label, original, keep_span))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(label, original, keep_span)
            for name, mod in list(sys.modules.items()):
                if name != "ratdyn" and not name.startswith("ratdyn."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def data(self):
        return {
            "spans": [list(s) for s in self.spans],
            "layers": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.layers.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.data(), fh)


def merge(traces):
    """Combine trace dicts of several processes: layers and counts add up
    (max_degree is a maximum) and span ids are renumbered apart."""
    out = {"spans": [], "layers": {}, "counts": collections.Counter()}
    offset = 0
    for t in traces:
        for span_id, name, start, end, parent in t["spans"]:
            out["spans"].append([span_id + offset, name, start, end,
                                 None if parent is None else parent + offset])
        offset += 1 + max((s[0] for s in t["spans"]), default=-1)
        for k, v in t["layers"].items():
            acc = out["layers"].setdefault(k, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += v[f]
        for k, v in t["counts"].items():
            if k == "kernel.poly_roots.max_degree":
                out["counts"][k] = max(out["counts"][k], v)
            else:
                out["counts"][k] += v
    out["counts"] = dict(out["counts"])
    return out


def parse_importtime(text, packages):
    """{package: seconds} from ``python -X importtime`` stderr.

    A package's time is the cumulative time of its own line, or, when the
    package was imported lazily and has no line of its own (scipy.linalg),
    the sum over its modules that no other module of it imported.
    """
    rows = []  # (depth, name, cumulative us), children before parents
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        cumulative, field = parts[1].strip(), parts[2]
        if not cumulative.isdigit():
            continue
        name = field.strip()
        rows.append((len(field) - len(field.lstrip()), name, int(cumulative)))
    out = dict.fromkeys(packages, 0.0)
    ancestors = []  # walking backwards, parents come first
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for pkg in packages:
            inside = lambda n: n == pkg or n.startswith(pkg + ".")  # noqa: E731
            if inside(name) and not any(inside(a) for _, a in ancestors):
                out[pkg] += cumulative / 1e6
        ancestors.append((depth, name))
    return out
