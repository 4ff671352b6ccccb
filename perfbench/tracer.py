"""Outside-in span tracer for conekit.

The tracer wraps public functions of conekit from outside the package: it
edits no source file.  A module-level function is replaced in every
conekit module that holds it (``ideals.saturate``, ``cone.saturate`` and
``scheme.saturate`` are one function under three names), so no call can
bypass the wrapper.  Methods are replaced on their class.

Each call of a wrapped function records one span: its name, start, end,
parent span and a note.  Spans are kept in memory; ``summary`` turns them
into per-function figures:

- ``<F>.calls``, ``<F>.total_s`` and ``<F>.self_s``, where self time is the
  span's duration minus the time its direct child spans cover;
- ``groebner.buchberger.max_s``, ``.basis_terms`` and ``.cap_exceeded``;
- ``ideals.EngineContext.groebner.memo_hits`` (a call that neither read
  the disk cache nor ran ``buchberger`` was served by the in-process memo);
- ``cache.BasisCache.get.hits``;
- ``checks.<check>.total_s`` for each of the nine checks, and
  ``checks.second_prime.total_s``, the time of the second-prime re-runs.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List

MODULES = ("cache", "checks", "cone", "fields", "groebner", "ideals", "linalg",
           "report", "ring", "scheme")

# module-level functions: (module that defines it, function name)
FUNCTIONS = [
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("ideals", "saturate"),
    ("ideals", "quotient_by_poly"),
    ("ideals", "intersect"),
    ("ideals", "eliminate"),
    ("ideals", "saturate_by_poly"),
    ("ideals", "saturate_block"),
    ("ideals", "hilbert_data"),
    ("ideals", "contains"),
    ("ideals", "radical_member"),
    ("scheme", "graph_closure"),
    ("scheme", "fiber"),
    ("scheme", "component_multiplicity"),
    ("scheme", "random_point"),
    ("cone", "certify_genericity"),
    ("cone", "cone_family_end"),
    ("checks", "run_check"),
    ("report", "run_scenario"),
    ("report", "report_bytes"),
]

# methods: (module, class, method name)
METHODS = [
    ("ideals", "EngineContext", "groebner"),
    ("cache", "BasisCache", "get"),
    ("cache", "BasisCache", "put"),
    ("ring", "PolyRing", "parse"),
]

# ConeSchemes properties and the key under which ConeSchemes._get memoizes
# each one; only a build (key not yet cached) records a span.
PROPERTIES = [("omega", "omega"), ("sigma", "sigma"), ("theta", "theta"),
              ("projection_graph", "proj_graph")]

CHECK_NAMES = ("omega-consistency", "prop-2-1", "expansion-g", "w-covering",
               "prop-2-5", "prop-2-6", "digamma", "example-3-2", "formula-3-5")

SPAN_NAMES = (["%s.%s" % f for f in FUNCTIONS]
              + ["%s.%s.%s" % m for m in METHODS]
              + ["scheme.Subscheme.saturated"]
              + ["cone.ConeSchemes.%s" % p for p, _ in PROPERTIES])


def metric_names() -> List[str]:
    """Every figure ``summary`` reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [span + ".calls", span + ".total_s", span + ".self_s"]
    names += [
        "groebner.buchberger.max_s",
        "groebner.buchberger.basis_terms",
        "groebner.buchberger.cap_exceeded",
        "ideals.EngineContext.groebner.memo_hits",
        "cache.BasisCache.get.hits",
    ]
    names += ["checks.%s.total_s" % c for c in CHECK_NAMES]
    names.append("checks.second_prime.total_s")
    return names


# figures also reported for the set-up (the cold pass of light-warm-cache)
# under the prefix "setup."
SETUP_METRICS = (
    "cache.BasisCache.put.calls",
    "cache.BasisCache.put.self_s",
    "groebner.buchberger.self_s",
)


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Installs wrappers on ``install`` and removes them on ``uninstall``."""

    def __init__(self):
        # span: [name, start, end, parent index, note]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, note: Callable = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = ("raised", type(exc).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module("conekit." + m) for m in MODULES}
        notes = {
            "groebner.buchberger": lambda a, out: sum(len(p.terms) for p in out),
            "cache.BasisCache.get": lambda a, out: out is not None,
            "checks.run_check": lambda a, out: a[0],
        }
        for mod, fname in FUNCTIONS:
            name = "%s.%s" % (mod, fname)
            orig = getattr(mods[mod], fname)
            wrapped = self._wrap(name, orig, notes.get(name))
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, wrapped)
        for mod, cls_name, meth in METHODS:
            name = "%s.%s.%s" % (mod, cls_name, meth)
            cls = getattr(mods[mod], cls_name)
            self._set(cls, meth, self._wrap(name, cls.__dict__[meth], notes.get(name)))
        sub = mods["scheme"].Subscheme
        self._set(sub, "saturated", classmethod(
            self._wrap("scheme.Subscheme.saturated", sub.__dict__["saturated"].__func__)))
        schemes = mods["cone"].ConeSchemes
        for prop, key in PROPERTIES:
            self._set(schemes, prop, self._build_only(
                "cone.ConeSchemes." + prop, key, schemes.__dict__[prop].fget))

    def _build_only(self, name: str, key: str, fget: Callable) -> property:
        traced = self._wrap(name, fget)

        def getter(obj):
            if key in obj._cache:
                return fget(obj)
            return traced(obj)

        return property(getter)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- figures ------------------------------------------------------------

    def summary(self, first: int = 0, last: int = None) -> Dict[str, float]:
        """Per-function figures over spans[first:last] (a contiguous stretch
        of top-level work, such as one or more passes)."""
        spans = self.spans[first:last]
        out = {name: 0 for name in metric_names()}
        child_time = [0.0] * len(spans)
        n_children = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            p = parent - first
            if 0 <= p < len(spans):
                child_time[p] += end - start
                n_children[p] += 1
        seen_checks = set()
        for k, (name, start, end, parent, note) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".total_s"] += dur
            out[name + ".self_s"] += dur - child_time[k]
            raised = isinstance(note, tuple)
            if name == "groebner.buchberger":
                out["groebner.buchberger.max_s"] = max(out["groebner.buchberger.max_s"], dur)
                if raised:
                    out["groebner.buchberger.cap_exceeded"] += note[1] == "ResourceCapExceeded"
                else:
                    out["groebner.buchberger.basis_terms"] += note
            elif name == "ideals.EngineContext.groebner":
                out["ideals.EngineContext.groebner.memo_hits"] += (
                    not raised and n_children[k] == 0)
            elif name == "cache.BasisCache.get":
                out["cache.BasisCache.get.hits"] += note is True
            elif name == "checks.run_check" and not raised:
                out["checks.%s.total_s" % note] += dur
                # run_check_two_prime is not wrapped, so both runs of one
                # check are children of one run_scenario span; the second
                # is the second-prime re-run
                if (parent, note) in seen_checks:
                    out["checks.second_prime.total_s"] += dur
                seen_checks.add((parent, note))
        return out
