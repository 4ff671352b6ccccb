"""Cone construction layer: graph schemes, pencils, splits."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import checks, cone, scheme
from conekit.checks import FAIL
from conekit.fields import DEFAULT_PRIME, SECOND_PRIME, FieldConfig, PrimeField
from conekit.ideals import (
    EngineContext,
    Ideal,
    contains,
    contains_ideal,
    hilbert_data,
    ideal_equal,
    intersect,
    multisaturate,
    radical_contains_ideal,
    saturate,
    saturate_by_poly,
)
from conekit.report import ScenarioConfig, run_scenario
from conekit.ring import AmbientSpace, PolyRing, poly_str
from conekit.scheme import Subscheme, at_point, component_multiplicity, fiber, union_certify
import oracles
from oracles import expansion_pencil_taylor, fiber_by_elimination, is_component

CFG = FieldConfig.parse("Fp:%d" % DEFAULT_PRIME)
CTX = EngineContext(seed=0)
FP = PrimeField(DEFAULT_PRIME)

ALL_PRESETS = sorted(cone.PRESETS)


def test_preset_lookup():
    cd = cone.preset("quadric-s2-h1", CFG)
    assert (cd.n, cd.h, cd.nx, cd.pivot) == (2, 1, 4, 3)
    assert cd.f_deg() == 2
    with pytest.raises(cone.ConeDataError):
        cone.preset("no-such-preset")


def test_cone_data_validation():
    with pytest.raises(cone.ConeDataError):
        cone.ConeData(n=1, h=1, f_text="x0^2", field_cfg=CFG)
    with pytest.raises(cone.ConeDataError):
        cone.ConeData(n=3, h=4, f_text="x0^2", field_cfg=CFG)
    for f_text in ("x0^2 + x1", "x0^2 + q7^2", "x0 - x0", "x0^2 +"):
        with pytest.raises(cone.ConeDataError):
            cone.ConeData(n=2, h=1, f_text=f_text, field_cfg=CFG)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_graph_equations_match_map_closure(name):
    # the pinned equation system equals the independently computed
    # rational-map graph closure after saturation
    cd = cone.preset(name, CFG)
    schemes = cone.ConeSchemes(cd, CTX)
    assert cone.verify_graph_consistency(schemes)


def test_graph_equations_are_multihomogeneous():
    cd = cone.preset("cubic-3f-h1", CFG)
    ring = cd.ring(cd.ambient_master())
    for g in cone.graph_equations(cd, ring):
        assert g.is_multihomogeneous()
        md = g.multidegree()
        assert md["x"] == 1 and md["y"] == 1


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_pencil_matches_taylor_oracle(name):
    # closed-form pencil evaluated along the unit-parameter twist equals
    # minus w times the literal first Taylor coefficient
    cd = cone.preset(name, CFG)
    rep = cone.expansion_pencil(cd)
    T = expansion_pencil_taylor(cd)
    ring = T.ring
    w = ring.var("w0")
    x = ring.block_vars("x")
    p = cd.pivot
    dehom = rep.first_order.substitute({"z0": 1})
    moved = ring.convert(dehom, {"z1": "w0"}).substitute(
        {"x0": x[0] - x[p], "x%d" % p: w * x[p]})
    assert moved + w * T == ring.zero()


@pytest.mark.parametrize("name,polar_product", [
    ("quadric-s2-h1", "z0*x3^2 - z1*x0*x3"),  # x3 * (z0*x3 - z1*x0)
    ("cubic-3f-h1", "3*z0*x0^2*x4 - 3*z1*x4^3"),  # x4 * (z0*3x0^2 - z1*3x4^2)
])
def test_pencil_is_pivot_times_polar_for_h1(name, polar_product):
    # for h = 1 the pencil is x_p * (z0*df/dx0 - z1*df/dx_p): the polar of X
    # with respect to the centre (z0 : 0 : ... : 0 : -z1) of the twisted
    # projection, times the pivot coordinate
    cd = cone.preset(name, CFG)
    assert cd.h == 1
    first_order = cone.expansion_pencil(cd).first_order
    assert first_order == first_order.ring.parse(polar_product)


def test_covering_counts_projection_fibres():
    # x0*x1 + x2*x3 contains the twist line {x1 = x2 = 0}, so every centre
    # lies on X and the projection from it is birational: count 1, FAIL
    cd = cone.ConeData(n=2, h=1, f_text="x0*x1 + x2*x3", field_cfg=CFG)
    out = checks.check_w_covering(cd, CTX)
    assert out.status == FAIL
    assert out.witnesses["expected"] == 2
    assert out.witnesses["fiber-counts"] == [1, 1, 1]
    # the centre is a point only for h = 1
    with pytest.raises(cone.ConeDataError):
        cone.covering_degree_report(cone.preset("cubic-3f-h2", CFG), CTX)


def test_covering_fibre_keeps_both_points_at_seed_510():
    # the second sample's fibre has two points; saturating it by a random
    # linear form of x that vanishes at one of them (seed 510) read length 1
    out = checks.check_w_covering(cone.preset("quadric-s2-h1", CFG), EngineContext(seed=510))
    assert out.witnesses["fiber-counts"] == [2, 2, 2]
    assert out.status == checks.PASS


def test_pencil_is_linear_in_z():
    for name in ALL_PRESETS:
        rep = cone.expansion_pencil(cd := cone.preset(name, CFG))
        assert not rep.degenerate
        assert rep.first_order.multidegree()["z"] == 1
        assert rep.first_order.multidegree()["x"] == cd.f_deg()


def test_fiber_product_scheme_dimensions():
    for name in ALL_PRESETS:
        cd = cone.preset(name, CFG)
        E = cone.build_fiber_product_scheme(cd)
        assert E.dimension(CTX) == cd.n + 2


def test_genericity_accepts_presets():
    for name in ALL_PRESETS:
        gen = cone.certify_genericity(cone.preset(name, CFG), CTX)
        assert gen.hypersurface_smooth
        assert not gen.rejected
    # the quadric's codim-1 plane section is a known singular exception
    gen = cone.certify_genericity(cone.preset("quadric-s2-h1", CFG), CTX)
    assert not gen.section_h_smooth and gen.notes


def test_genericity_rejects_characteristic_dividing_degree():
    # char 3 divides deg f = 3: multiplicity accounting is unreliable there
    cd = cone.ConeData(
        n=3, h=1, f_text="x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
        field_cfg=FieldConfig.parse("Fp:3"),
    )
    gen = cone.certify_genericity(cd, CTX)
    assert gen.rejected
    assert any("characteristic" in n for n in gen.notes)


def test_genericity_rejects_degenerate_input():
    # f missing the twisted coordinates entirely: singular and z-independent
    cd = cone.ConeData(n=3, h=1, f_text="x0^3 + x1^3 + x2^3", field_cfg=CFG)
    gen = cone.certify_genericity(cd, CTX)
    assert gen.rejected
    assert not gen.hypersurface_smooth
    assert gen.pencil.degenerate


def test_projected_fiber_matches_fiber_product_quadric():
    cd = cone.preset("quadric-s2-h1", CFG)
    schemes = cone.ConeSchemes(cd, CTX)
    assert cone.projected_fiber_matches_fiber_product(schemes)


def test_split_components_quadric():
    cd = cone.preset("quadric-s2-h1", CFG)
    rep = cone.verify_split_components(cone.ConeSchemes(cd, CTX))
    assert rep.certified
    assert rep.gamma_dim_ok
    assert rep.dims == (cd.n + 2 - cd.h,) * 2
    assert rep.mult_diag == 1 and rep.mult_special == 1


def test_line_on_surface_fermat_cubic():
    amb = AmbientSpace.product(("y", 4))
    R = PolyRing(amb, FP)
    S = Subscheme(Ideal(R, [R.parse("y0^3 + y1^3 + y2^3 + y3^3")]))
    L = cone.line_on_surface(S, CTX)
    assert L is not None
    assert len(L.gens) == 2
    for g in S.ideal.gens:
        assert contains(L, g, CTX)


F7 = PrimeField(7)
P3_F7 = PolyRing(AmbientSpace.product(("y", 4)), F7)


@st.composite
def surfaces_f7(draw):
    """A form in P^3 over F_7; often (y_i - a*y_j)*q1 + (y_k - b*y_l)*q2,
    which contains a line of the searched shape."""
    deg = draw(st.integers(1, 3))
    y = P3_F7.gens()

    def form(d):
        monos = list(_monomials(4, d))
        coeffs = draw(st.lists(st.integers(0, 6), min_size=len(monos), max_size=len(monos)))
        return P3_F7.from_terms(dict(zip(monos, coeffs)))

    if draw(st.booleans()):
        i, j, k, l = draw(st.permutations(range(4)))
        a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        g = (y[i] - y[j].scale(a)) * form(deg - 1) + (y[k] - y[l].scale(b)) * form(deg - 1)
    else:
        g = form(deg)
    return g


def _monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _monomials(n - 1, d - e):
            yield (e,) + rest


@settings(max_examples=60, deadline=None)
@given(g=surfaces_f7())
def test_line_on_surface_lines_lie_on_the_surface(g):
    if g.is_zero():
        return
    S = Subscheme(Ideal(P3_F7, [g]))
    L = cone.line_on_surface(S, CTX)
    if L is not None:
        assert len(L.gens) == 2 and all(h.total_degree() == 1 for h in L.gens)
        assert contains(L, g, CTX)


def test_line_on_surface_none_when_absent():
    # a smooth quadric in P3 has lines, but none of the searched coordinate
    # pairing shape for this diagonal form with -2 a nonsquare companion;
    # use an irreducible example without such lines: generic diagonal only
    # admits them when the paired ratio has a root, so engineer a failure
    amb = AmbientSpace.product(("y", 4))
    R = PolyRing(amb, FP)
    # two generators: the searcher only handles principal ideals
    S = Subscheme(Ideal(R, [R.parse("y0"), R.parse("y1")]))
    assert cone.line_on_surface(S, CTX) is None


def test_section_scheme_lives_in_subspace():
    cd = cone.preset("cubic-3f-h2", CFG)
    sec = cone.section_scheme(cd)
    assert sec.ring.nvars == cd.nx - cd.h
    assert sec.dimension(CTX) == cd.nx - cd.h - 2
    # the complementary section, in its own h + 1 coordinates
    kept = [0] + list(range(cd.pivot, cd.nx))
    ring = cd.ring(AmbientSpace.product(("y", len(kept))))
    rest = cd.section_form(ring, "y", kept)
    assert poly_str(rest) == "y0^3 + y1^3 + y2^3"


def test_delta_point_on_hypersurface():
    cd = cone.preset("quadric-s2-h1", CFG)
    ring = cd.ring(cd.ambient_x())
    X = Subscheme(Ideal(ring, [cd.f_in(ring)]))
    D = cone.delta_point_on(X, CTX)
    assert D is not None
    for g in X.ideal.gens:
        assert contains(D, g, CTX)


def test_join_support_requires_h1():
    cd = cone.preset("cubic-3f-h2", CFG)
    schemes = cone.ConeSchemes(cd, CTX)
    ring = cd.ring(AmbientSpace.product(("y", cd.nx - cd.h)))
    delta = Ideal(ring, [ring.parse("y0"), ring.parse("y1")])
    with pytest.raises(cone.ConeDataError):
        cone.join_support_matches_operator(schemes, delta)


def test_directly_wrapped_subschemes_are_saturated(monkeypatch):
    # every Subscheme built without Subscheme.saturated while the light
    # checks run must already equal its saturation in every block
    built = {}
    depth = [0]
    init = Subscheme.__init__
    saturated = Subscheme.saturated.__func__

    def recording_init(self, ideal):
        init(self, ideal)
        if not depth[0]:
            built.setdefault(ideal.key(), ideal)

    def counting_saturated(cls, ideal, ctx):
        depth[0] += 1
        try:
            return saturated(cls, ideal, ctx)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Subscheme, "__init__", recording_init)
    monkeypatch.setattr(Subscheme, "saturated", classmethod(counting_saturated))
    light = tuple(c for c in checks.CHECK_ORDER if c not in ("prop-2-1", "prop-2-6"))
    for name in ALL_PRESETS:
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            run_scenario(ScenarioConfig(preset_name=name, field="Fp:%d" % p, checks=light))
    monkeypatch.undo()
    assert len(built) > 20
    for ideal in built.values():
        assert ideal_equal(multisaturate(ideal, CTX), ideal, CTX), ideal


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
def test_sigma_routes_match_theta_on_quadric(p):
    # prop-2-1 and prop-2-6 start from the unsaturated sigma; on quadric the
    # eager routes through sigma's saturation and theta still finish, so
    # each result is compared with theirs (prop-2-1's fibre up to saturation,
    # as it reads its fibre unsaturated)
    cd = cone.preset("quadric-s2-h1", FieldConfig.parse("Fp:%d" % p))
    ctx = EngineContext(seed=0)
    schemes = cone.ConeSchemes(cd, ctx)
    theta = schemes.theta.ideal
    assert ideal_equal(multisaturate(theta, ctx), theta, ctx)
    lazy = cone.sigma_fiber(schemes)
    # the eager fibre: saturated sigma, cut at t = 1, t saturated and eliminated
    at_one = {"t": (1, 1)}
    eager = Subscheme.saturated(
        fiber_by_elimination(Subscheme.saturated(schemes.sigma, ctx).ideal, at_one, ctx), ctx)
    assert ideal_equal(Subscheme.saturated(lazy.ideal, ctx).ideal, eager.ideal, ctx)
    fiber_pair, diagonal_pair = cone.verify_diagonal_is_component(schemes)
    assert fiber_pair == diagonal_pair == (3, 6)
    assert is_component(lazy, fiber(schemes.diagonal_part.ideal, at_one, ctx), ctx)
    # cone_family_end from theta: a collection whose sigma is theta
    delta = checks._point_delta_on_x(cd, ctx).coords
    from_theta = cone.ConeSchemes(cd, ctx)
    from_theta._cache["sigma"] = theta
    end = cone.cone_family_end(schemes, delta).support.ideal
    assert ideal_equal(end, cone.cone_family_end(from_theta, delta).support.ideal, ctx)


# (blocks of the cut ideal, blocks set to a point) of each point cut
CHECK_CUTS = {
    (("t", "z", "x", "y"), ("t", "z")),  # omega at (1:1), (1:0): the E0 fibre
    (("x", "y"), ("y",)),  # w-covering's graph over the image point
    (("z", "x", "y"), ("x",)),  # formula-3-5's Gamma over an image point
    (("x", "y"), ("x",)),  # prop-2-5: E0 over delta
    (("t", "z", "x", "y"), ("x",)),  # prop-2-6: sigma over delta
    (("t", "z", "x", "y"), ("t",)),  # prop-2-1: sigma and the diagonal at t = 1
    (("t", "z", "y"), ("t",)),  # prop-2-6: the family end at t = (1:0)
}


def test_at_point_matches_elimination_at_every_check_cut(monkeypatch):
    # each point cut the checks make on quadric-s2-h1 at both primes equals
    # the cut by the point forms, exactly block-saturated and eliminated
    cuts = {}
    at_point = scheme.at_point

    def recording(ideal, at):
        point = tuple((b, tuple(c)) for b, c in at.items())
        cuts.setdefault((ideal.key(), point), (ideal, at))
        return at_point(ideal, at)

    monkeypatch.setattr(scheme, "at_point", recording)
    monkeypatch.setattr(cone, "at_point", recording)
    for p in (DEFAULT_PRIME, SECOND_PRIME):
        cd = cone.preset("quadric-s2-h1", FieldConfig.parse("Fp:%d" % p))
        ctx = EngineContext(seed=0)
        gate = checks.certify_gate(cd, ctx)
        for name in checks.CHECK_ORDER:
            checks.run_check(name, cd, ctx, gate)
        assert checks.E0_FIBER_CHECK.fn(cd, ctx).status == checks.PASS
    monkeypatch.undo()
    kinds = {(tuple(b.name for b in I.ambient.blocks), tuple(at)) for I, at in cuts.values()}
    assert kinds == CHECK_CUTS
    for ideal, at in cuts.values():
        ctx = EngineContext(seed=0)
        assert ideal_equal(scheme.at_point(ideal, at), fiber_by_elimination(ideal, at, ctx), ctx)


def test_formula_3_5_delta_is_its_saturation_with_f(monkeypatch):
    # D, delta's linear ideal in x, holds f and equals the saturation of
    # delta + f that formula-3-5 used to build, on every preset at both
    # primes; each run builds the correspondence Gamma_delta once
    recorded = []
    builds = []
    delta_in_x = cone._delta_in_x
    correspondence = cone.operator_correspondence

    def recording(cd, delta_y, ring):
        gens = delta_in_x(cd, delta_y, ring)
        recorded.append((cd, Ideal(ring, gens)))
        return gens

    def counting(schemes, delta_y):
        builds[-1] += 1
        return correspondence(schemes, delta_y)

    monkeypatch.setattr(cone, "_delta_in_x", recording)
    monkeypatch.setattr(cone, "operator_correspondence", counting)
    for name in ALL_PRESETS:
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            cd = cone.preset(name, FieldConfig.parse("Fp:%d" % p))
            ctx = EngineContext(seed=0)
            builds.append(0)
            checks.run_check("formula-3-5", cd, ctx, checks.certify_gate(cd, ctx))
    monkeypatch.undo()
    assert builds == [1] * 2 * len(ALL_PRESETS)
    assert len(recorded) == 2 * len(ALL_PRESETS)
    for cd, D in recorded:
        ctx = EngineContext(seed=0)
        f = cd.f_in(D.ring)
        assert contains(D, f, ctx)
        assert ideal_equal(D, Subscheme.saturated(D.with_extra([f]), ctx).ideal, ctx)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except scheme.SchemeError as exc:
        return "SchemeError: %s" % exc


def assert_cut_read_as_its_saturation(cut, delta, ctx):
    """Each reader of formula-3-5's S gives the same on the cut and on its
    saturation; returns whether the cut is proper."""
    S, T = Subscheme(cut), Subscheme.saturated(cut, ctx)
    D = Subscheme(delta)  # (c)
    assert S.hilbert(ctx) == T.hilbert(ctx)
    res = saturate(S.ideal, D.ideal, ctx)
    assert ideal_equal(res, saturate(T.ideal, D.ideal, ctx), ctx)
    others = [Subscheme(res)] if hilbert_data(res, ctx).dimension >= 0 else []  # (e)
    assert union_certify(S, [D] + others, ctx) == union_certify(T, [D] + others, ctx)
    mult = _outcome(component_multiplicity, S, D, others, ctx)
    assert mult == _outcome(component_multiplicity, T, D, others, ctx)
    return S.dimension(ctx) == D.dimension(ctx)


def test_formula_3_5_reads_its_cut_as_its_saturation(monkeypatch):
    # case (i) of Subscheme: S, the image cut by the plane section, is read
    # unsaturated; each of its readers gives what it gives on S's
    # saturation, on every preset at both primes
    cuts = []
    saturate_in_cone = cone.saturate

    def recording(ideal, target, ctx):
        cuts.append((ideal, target))
        return saturate_in_cone(ideal, target, ctx)

    monkeypatch.setattr(cone, "saturate", recording)
    for name in ALL_PRESETS:
        for p in (DEFAULT_PRIME, SECOND_PRIME):
            cd = cone.preset(name, FieldConfig.parse("Fp:%d" % p))
            ctx = EngineContext(seed=0)
            checks.run_check("formula-3-5", cd, ctx, checks.certify_gate(cd, ctx))
    monkeypatch.undo()
    assert len(cuts) == 2 * len(ALL_PRESETS)
    proper = [assert_cut_read_as_its_saturation(cut, delta, EngineContext(seed=0))
              for cut, delta in cuts]
    # the cubics cut properly, the quadric (e0 on X) improperly
    assert proper.count(True) == 4


def test_a_cut_that_is_not_saturated_is_read_as_its_saturation():
    # every preset's cut happens to be saturated; two skew lines in P^3 cut
    # by a plane are not (degree 1 holds three forms, two points hold two)
    R = PolyRing(AmbientSpace.product(("x", 4)), FP)
    lines = Ideal(R, [R.parse(t) for t in ("x0*x2", "x0*x3", "x1*x2", "x1*x3")])
    cut = lines.with_extra([R.parse("x0 + x1 + x2 + x3")])
    point = Ideal(R, [R.parse(t) for t in ("x0", "x1", "x2 + x3")])
    assert not ideal_equal(cut, multisaturate(cut, CTX), CTX)
    assert assert_cut_read_as_its_saturation(cut, point, CTX)


def test_heavy_checks_reach_neither_theta_nor_is_component(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a check reached theta or is_component")

    monkeypatch.setattr(cone.ConeSchemes, "theta", property(unreachable))
    monkeypatch.setattr(oracles, "is_component", unreachable)
    assert not hasattr(cone, "theta_removal_idempotent")
    cfg = ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:%d" % DEFAULT_PRIME,
                         checks=("prop-2-1", "prop-2-6"), seed=0)
    rep = run_scenario(cfg)
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        ("prop-2-1", "PASS"), ("prop-2-6", "PASS")]


def test_diagonal_component_ideal_is_not_saturated():
    # (t0 - t1) + minors + f(x) holds f(y)·m_x^2 but not f(y), so the
    # diagonal must be built with Subscheme.saturated
    cd = cone.preset("quadric-s2-h1", CFG)
    ring = cd.ring(cd.ambient_master())
    diag = cone.diagonal_component_ideal(cd, ring)
    fy = cd.section_form(ring, "y", range(cd.nx))
    assert not contains(diag, fy, CTX)
    x = ring.block_vars("x")
    assert all(contains(diag, fy * a * b, CTX) for a in x for b in x)
    assert not ideal_equal(multisaturate(diag, CTX), diag, CTX)


# the presets and the scenarios of tests/corpus, at both standard primes
INSTANCES = [(dict(preset=name), name) for name in ALL_PRESETS] + [
    (json.loads(path.read_text()), path.stem)
    for path in sorted((Path(__file__).parent / "corpus").glob("*.json"))]
AT_ONE = {"t": (1, 1)}


def instance_schemes(scenario, p):
    cd = ScenarioConfig.from_dict(dict(scenario, field="Fp:%d" % p)).cone_data()
    return cd, cone.ConeSchemes(cd, EngineContext(seed=0))


@pytest.mark.slow
@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("scenario", [s for s, _ in INSTANCES], ids=[n for _, n in INSTANCES])
def test_prop_2_1_reads_its_fibre_as_its_saturation(scenario, p):
    # case (j) of Subscheme: S0 (sigma_fiber's S, sigma at t = 1 from the
    # bare graph equations), the same cut from omega saturated, S0 saturated
    # in x and the fully saturated fibre have the same Hilbert data, the
    # same radical containment in C and the same containment in C (C is
    # prime, so the two agree), though S0 is not the saturated fibre
    cd, schemes = instance_schemes(scenario, p)
    ctx = schemes.ctx
    ring = schemes.omega.ring
    from_omega = schemes.omega.ideal.with_extra(
        [cd.f_in(ring), cd.section_form(ring, "y", range(cd.nx))])
    S0 = cone.sigma_fiber(schemes).ideal
    cuts = [S0, at_point(from_omega, AT_ONE)]
    full = fiber(schemes.sigma, AT_ONE, ctx).ideal
    C = at_point(schemes.diagonal_part.ideal, AT_ONE)
    readings = {(hilbert_data(T, ctx), radical_contains_ideal(C, T, ctx), contains_ideal(C, T, ctx))
                for T in cuts + [multisaturate(S0, ctx, blocks=["x"]), full]}
    assert len(readings) == 1
    assert not any(ideal_equal(T, full, ctx) for T in cuts)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("scenario", [s for s, _ in INSTANCES], ids=[n for _, n in INSTANCES])
def test_diagonal_part_is_exact(scenario, p):
    # D0 : ℓ^∞ is one ideal P for every nonzero linear x-form ℓ, P is the
    # saturation in every block, and P at t = 1 is C with no saturation
    cd, schemes = instance_schemes(scenario, p)
    ctx = schemes.ctx
    ring = cd.ring(cd.ambient_master())
    D0 = cone.diagonal_component_ideal(cd, ring)
    x = ring.block_vars("x")
    P = multisaturate(D0, ctx)
    for form in (x[0], x[-1], sum(x[1:], x[0])):
        assert ideal_equal(saturate_by_poly(D0, form, ctx), P, ctx)
    assert ideal_equal(schemes.diagonal_part.ideal, P, ctx)
    C = at_point(schemes.diagonal_part.ideal, AT_ONE)
    assert ideal_equal(C, fiber(schemes.diagonal_part.ideal, AT_ONE, ctx).ideal, ctx)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("scenario", [s for s, _ in INSTANCES], ids=[n for _, n in INSTANCES])
def test_equality_shortcuts_hold(scenario, p):
    # case (l): the bare equation system already equals the map-graph
    # closure; case (m): the cut projection graph already equals
    # gamma1 ∩ gamma2, and the saturated route reads what the equality reads
    cd, schemes = instance_schemes(scenario, p)
    ctx = schemes.ctx
    G = schemes.omega_from_map.ideal
    assert ideal_equal(Ideal(G.ring, cone.graph_equations(cd, G.ring)), G, ctx)
    graph = schemes.projection_graph.ideal
    cut, gamma1, gamma2 = cone.split_components(cd, graph.ring)
    cut_graph = graph.with_extra(cut)
    assert ideal_equal(cut_graph, intersect(gamma1.ideal, gamma2.ideal, ctx), ctx)
    rep = cone.verify_split_components(schemes)
    assert (rep.certified, rep.mult_diag, rep.mult_special) == (True, 1, 1)
    assert cone.saturated_split(cut_graph, gamma1, gamma2, ctx) == (True, 1, 1)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("scenario", [s for s, _ in INSTANCES], ids=[n for _, n in INSTANCES])
def test_graph_closure_is_exact(scenario, p):
    # case (a): over a full product ring the minors saturated by any nonzero
    # element of the forms' ideal are the graph's prime, which graph_closure
    # reaches through a monomial form
    cd, schemes = instance_schemes(scenario, p)
    ctx = schemes.ctx
    for spec, closure in ((cone.twist_map_spec(cd), schemes.omega_from_map),
                          (cone.projection_map_spec(cd), schemes.projection_graph)):
        minors = scheme.graph_minors(spec)
        forms = [minors.ring.convert(f) for f in spec.forms]
        for c in (forms[0], forms[-1], sum(forms[1:], forms[0])):
            assert ideal_equal(saturate_by_poly(minors, c, ctx), closure.ideal, ctx)


H1_INSTANCES = [(s, n) for s, n in INSTANCES
                if ScenarioConfig.from_dict(dict(s, field="Q")).cone_data().h == 1]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME])
@pytest.mark.parametrize("scenario", [s for s, _ in H1_INSTANCES], ids=[n for _, n in H1_INSTANCES])
def test_covering_fibre_from_minors(scenario, p):
    # case (n): off X's centres the bare minors with f and the graph closure
    # give one fibre reading, and w-covering reads the minors
    cd, schemes = instance_schemes(scenario, p)
    ctx = schemes.ctx
    read = 0
    for z, _, spec, image in cone.covering_draws(cd, ctx):
        assert cone._value_at(spec.source_gens[0], cone.projection_centre(cd, z))
        fibres = [at_point(ideal, {"y": image}) for ideal in
                  (scheme.graph_minors(spec), scheme.graph_closure(spec, ctx).ideal)]
        assert hilbert_data(fibres[0], ctx) == hilbert_data(fibres[1], ctx)
        read += 1
        if read == cone.COVERING_SAMPLES:
            break
    assert read == cone.COVERING_SAMPLES


def _padded(ideal, block):
    """The ideal with its first generator g replaced by g times each
    variable of `block`: its saturation in that block is unchanged."""
    g = ideal.gens[0]
    return Ideal(ideal.ring, [g * v for v in ideal.ring.block_vars(block)] + list(ideal.gens[1:]))


def test_omega_consistency_falls_back_to_saturation(monkeypatch):
    # when the bare system is not the closure but its saturation is, the
    # check saturates it and reads PASS
    cd = cone.preset("quadric-s2-h1", CFG)
    ring = cd.ring(cd.ambient_master())
    E = Ideal(ring, cone.graph_equations(cd, ring))
    padded = _padded(E, "t").gens
    monkeypatch.setattr(cone, "graph_equations", lambda cd, ring: padded)
    ctx = EngineContext(seed=0)
    assert not ideal_equal(Ideal(ring, padded), cone.ConeSchemes(cd, ctx).omega_from_map.ideal, ctx)
    assert ideal_equal(multisaturate(Ideal(ring, padded), ctx), E, ctx)
    sats = []
    saturated = Subscheme.saturated.__func__

    def counted(cls, ideal, ctx):
        sats.append(ideal)
        return saturated(cls, ideal, ctx)

    monkeypatch.setattr(Subscheme, "saturated", classmethod(counted))
    assert checks.check_omega_consistency(cd, ctx).status == checks.PASS
    assert len(sats) == 1


def test_digamma_falls_back_to_saturation(monkeypatch):
    # when the cut projection graph is not gamma1 ∩ gamma2 but its
    # saturation is, the check splits the saturation and reads PASS
    cd = cone.preset("quadric-s2-h1", CFG)
    closure = scheme.graph_closure
    monkeypatch.setattr(cone, "graph_closure",
                        lambda spec, ctx: Subscheme(_padded(closure(spec, ctx).ideal, "z")))
    ctx = EngineContext(seed=0)
    schemes = cone.ConeSchemes(cd, ctx)
    graph = schemes.projection_graph.ideal
    cut, gamma1, gamma2 = cone.split_components(cd, graph.ring)
    meet = intersect(gamma1.ideal, gamma2.ideal, ctx)
    assert not ideal_equal(graph.with_extra(cut), meet, ctx)
    splits = []
    saturated_split = cone.saturated_split

    def counted(*args):
        splits.append(args)
        return saturated_split(*args)

    monkeypatch.setattr(cone, "saturated_split", counted)
    out = checks.check_split_components(cd, ctx)
    assert out.status == checks.PASS
    assert out.witnesses["multiplicity-diagonal"] == out.witnesses["multiplicity-special-fiber"] == "1"
    assert len(splits) == 1


def test_w_covering_falls_back_to_the_closure(monkeypatch):
    # with every centre taken to lie on X the check reads each fibre from the
    # graph closure, and reads what the minors read
    cd = cone.preset("quadric-s2-h1", CFG)
    fast = checks.check_w_covering(cd, EngineContext(seed=0))
    closures = []
    closure = scheme.graph_closure

    def counted(spec, ctx):
        closures.append(spec)
        return closure(spec, ctx)

    monkeypatch.setattr(cone, "graph_closure", counted)
    assert checks.check_w_covering(cd, EngineContext(seed=0)) == fast
    assert closures == []
    monkeypatch.setattr(cone, "projection_centre", lambda cd, z: [0] * cd.nx)
    slow = checks.check_w_covering(cd, EngineContext(seed=0))
    assert slow == fast and slow.status == checks.PASS
    assert len(closures) == cone.COVERING_SAMPLES
