"""The benchmark's tracer must find every conekit name it wraps.

perfbench/tracer.py looks functions, methods and properties up by name when
it installs, so deleting or renaming one of them breaks every traced
benchmark run; this test makes that visible in the ordinary suite.
"""

import importlib.util
import os

import pytest

from conekit import cone, ideals, scheme
from conekit.fields import DEFAULT_PRIME, PrimeField
from conekit.ring import AmbientSpace, PolyRing

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

pytestmark = pytest.mark.skipif(not os.path.exists(TRACER), reason="perfbench/ is absent")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def originals(tracer_mod):
    out = {}
    for mod, fname in tracer_mod.FUNCTIONS:
        m = importlib.import_module("conekit." + mod)
        out[(mod, fname)] = getattr(m, fname)
    for mod, cls_name, meth in tracer_mod.METHODS:
        cls = getattr(importlib.import_module("conekit." + mod), cls_name)
        out[(mod, cls_name, meth)] = cls.__dict__[meth]
    out["saturated"] = scheme.Subscheme.__dict__["saturated"]
    for prop, _ in tracer_mod.PROPERTIES:
        out[("ConeSchemes", prop)] = cone.ConeSchemes.__dict__[prop]
    return out


def test_tracer_installs_records_and_uninstalls():
    tracer_mod = load_tracer()
    before = originals(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        ring = PolyRing(AmbientSpace.product(("x", 2)), PrimeField(DEFAULT_PRIME))
        x0, x1 = ring.gens()
        assert ideals.contains(ideals.Ideal(ring, [x0]), x0 * x1, ideals.EngineContext(seed=0))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "ideals.contains" in names
    assert "groebner.buchberger" in names
    assert originals(tracer_mod) == before
