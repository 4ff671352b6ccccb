"""The verification checks: named certifications over one instance.

Each check runs a scheme-level computation and reports a five-valued
status.  Resource-cap exhaustion is never a verdict: it surfaces as
INCONCLUSIVE with the cap named in the witness.  Neither is a fault in the
program: an unexpected exception inside a check surfaces as INCONCLUSIVE
with an `internal-error` witness, and its traceback goes to stderr.
Instances that fail the genericity gate reject the scenario
(REJECTED-GENERICITY) rather than failing individual checks.  A cap hit or
a fault inside the gate itself decides nothing: every check then reports
the gate's INCONCLUSIVE outcome, with a `during` witness naming the gate.
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from .cone import (
    ConeData,
    ConeSchemes,
    GenericityReport,
    certify_genericity,
    cone_family_end,
    covering_degree_report,
    delta_point_on,
    expansion_pencil,
    join_support_matches_operator,
    line_on_surface,
    projected_fiber_matches_fiber_product,
    section_scheme,
    verify_diagonal_is_component,
    verify_graph_consistency,
    verify_image_in_linear_section,
    verify_operator_degree_split,
    verify_split_components,
)
from .fields import DEFAULT_PRIME, FieldConfig, SECOND_PRIME
from .groebner import ResourceCapExceeded
from .ideals import EngineContext, Ideal, radical_member
from .ring import poly_str
from .scheme import PointWitness, Subscheme, point_forms, random_point

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_APPLICABLE = "NOT-APPLICABLE"
REJECTED_GENERICITY = "REJECTED-GENERICITY"

# the witness key of a check that raised an unexpected exception
INTERNAL_ERROR = "internal-error"
# the `during` witness of an outcome that the genericity gate's failure decided
GATE = "genericity gate"


@dataclass
class CheckOutcome:
    status: str
    witnesses: Dict[str, object] = dc_field(default_factory=dict)
    notes: List[str] = dc_field(default_factory=list)


@dataclass(frozen=True)
class CheckDef:
    name: str
    anchor: str
    summary: str
    # samples rational points: its verdict is cross-checked at a second
    # prime, and over Q, where point search does not run, it is NOT-APPLICABLE
    randomized: bool
    fn: Callable[[ConeData, EngineContext], CheckOutcome]


# a witness lists at most this many generators of an ideal
WITNESS_GENS = 12


def _gens_text(ideal: Ideal) -> List[str]:
    out = [poly_str(g) for g in ideal.gens[:WITNESS_GENS]]
    if len(ideal.gens) > WITNESS_GENS:
        out.append("... (%d more)" % (len(ideal.gens) - WITNESS_GENS))
    return out


# ---------------------------------------------------------------------------
# delta construction per check


def _point_delta_on_x(cd: ConeData, ctx: EngineContext) -> Optional[PointWitness]:
    ring = cd.ring(cd.ambient_x())
    return random_point(Subscheme(Ideal(ring, [cd.f_in(ring)])), ctx)  # (b)


def _no_delta(kind: str, where: str) -> CheckOutcome:
    return CheckOutcome(INCONCLUSIVE, witnesses={"note": "no rational %s found %s" % (kind, where)})


def _point_delta_text(cd: ConeData, pt: PointWitness) -> List[str]:
    """The `delta` witness of a point delta: its point forms in the x ring."""
    ring = cd.ring(cd.ambient_x())
    return _gens_text(Ideal(ring, point_forms(ring, pt.block, pt.coords)))


def _section_delta(cd: ConeData, ctx: EngineContext) -> Tuple[Optional[Ideal], str]:
    """A cycle delta in the codim-h plane section and its kind: a line when
    the section is a surface in P^3 of degree >= 3 (h = 1), else a point."""
    V = section_scheme(cd)
    if cd.h == 1 and cd.nx - cd.h == 4 and cd.f_deg() >= 3:
        return line_on_surface(V, ctx), "line"
    return delta_point_on(V, ctx), "point"


# ---------------------------------------------------------------------------
# individual checks


def check_omega_consistency(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    same, E, G = verify_graph_consistency(ConeSchemes(cd, ctx))
    if same:
        return CheckOutcome(PASS)
    witnesses = {"equation-ideal": _gens_text(E), "map-graph-ideal": _gens_text(G)}
    if same is None:
        witnesses["note"] = "the equation system lies strictly inside the map-graph closure"
        return CheckOutcome(INCONCLUSIVE, witnesses=witnesses)
    return CheckOutcome(FAIL, witnesses=witnesses)


def check_e0_fiber(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    schemes = ConeSchemes(cd, ctx)
    if projected_fiber_matches_fiber_product(schemes):
        return CheckOutcome(PASS)
    return CheckOutcome(FAIL, witnesses={"note": "projected (t,z)=(1,unsteady) fiber differs"})


def check_diagonal_component(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    schemes = ConeSchemes(cd, ctx)
    pairs = verify_diagonal_is_component(schemes)
    if pairs is None:
        return CheckOutcome(FAIL, witnesses={
            "diagonal-ideal": _gens_text(schemes.diagonal_part.ideal),
            "note": "twisted diagonal not isolated at parameter 1",
        })
    if pairs[0] == pairs[1]:
        return CheckOutcome(PASS)
    return CheckOutcome(INCONCLUSIVE, witnesses={
        "fiber-dimension-degree": list(pairs[0]), "diagonal-dimension-degree": list(pairs[1])})


def check_expansion(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    rep = expansion_pencil(cd)
    if rep.degenerate:
        return CheckOutcome(
            REJECTED_GENERICITY,
            witnesses={
                "first-order-term": poly_str(rep.first_order),
                "nonzero": rep.nonzero,
                "parameter-dependent": rep.z_dependent,
            },
        )
    return CheckOutcome(
        PASS,
        witnesses={"first-order-term": poly_str(rep.first_order)},
    )


def check_w_covering(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    if cd.h != 1:
        return CheckOutcome(
            NOT_APPLICABLE,
            notes=[
                "for h >= 2 the centre of the twisted projection is an (h-1)-plane, "
                "so its fibres on the hypersurface have positive dimension"
            ],
        )
    rep = covering_degree_report(cd, ctx)
    if rep is None:
        return CheckOutcome(
            INCONCLUSIVE,
            witnesses={"note": "not enough rational sample points on the hypersurface"},
        )
    witnesses = {
        "expected": rep.expected,
        "fiber-counts": rep.counts,
        "parameter-values": [list(z) for z in rep.parameters],
        "sample-points": [list(p) for p in rep.points],
    }
    return CheckOutcome(PASS if rep.agree else FAIL, witnesses=witnesses)


def check_image_linear_section(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    pt = _point_delta_on_x(cd, ctx)
    if pt is None:
        return _no_delta("point", "on the hypersurface")
    schemes = ConeSchemes(cd, ctx)
    ok, img = verify_image_in_linear_section(schemes, pt.coords, cd.n)
    witnesses = {
        "delta": _point_delta_text(cd, pt),
        "image-ideal": _gens_text(img),
        "required-codimension": cd.n,
    }
    return CheckOutcome(PASS if ok else FAIL, witnesses=witnesses)


def check_family_end(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    if cd.n - cd.h < 1:
        # a point never satisfies dim < n-h here; hypothesis empty
        return CheckOutcome(
            NOT_APPLICABLE, notes=["hypothesis dim(delta) < n-h admits no delta"]
        )
    pt = _point_delta_on_x(cd, ctx)
    if pt is None:
        return _no_delta("point", "on the hypersurface")
    schemes = ConeSchemes(cd, ctx)
    result = cone_family_end(schemes, pt.coords)
    witnesses: Dict[str, object] = {
        "delta": _point_delta_text(cd, pt),
        "end-support": _gens_text(result.support.ideal),
    }
    if not result.dominant:
        witnesses["dominance-residual"] = _gens_text(result.dominance_residual)
        return CheckOutcome(FAIL, witnesses=witnesses)
    ring = result.support.ring
    cut = [ring.var("y%d" % i) for i in range(cd.pivot, cd.nx)]
    missing = [poly_str(v) for v in cut if not radical_member(v, result.support.ideal, ctx)]
    if missing:
        witnesses["cutting-forms-missing"] = missing
        return CheckOutcome(FAIL, witnesses=witnesses)
    return CheckOutcome(PASS, witnesses=witnesses)


def check_split_components(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    schemes = ConeSchemes(cd, ctx)
    rep = verify_split_components(schemes)
    witnesses = {
        "union-certified": rep.certified,
        "component-dimensions": list(rep.dims),
        "expected-dimension": cd.n + 2 - cd.h,
        "multiplicity-diagonal": str(rep.mult_diag),
        "multiplicity-special-fiber": str(rep.mult_special),
        # holds by construction (see verify_split_components)
        "dominance-pattern-ok": True,
    }
    if rep.certified is None and rep.gamma_dim_ok:
        witnesses["note"] = "the cut graph lies strictly inside the intersection of the components"
        return CheckOutcome(INCONCLUSIVE, witnesses=witnesses)
    ok = rep.certified and rep.gamma_dim_ok
    return CheckOutcome(PASS if ok else FAIL, witnesses=witnesses)


def check_operator_degree(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    delta, kind = _section_delta(cd, ctx)
    if delta is None:
        return _no_delta(kind, "in the plane section")
    schemes = ConeSchemes(cd, ctx)
    rep = verify_operator_degree_split(schemes, delta)
    expected = cd.f_deg()
    witnesses: Dict[str, object] = {
        "delta": _gens_text(delta),
        "delta-kind": kind,
        "expected-multiplicity": expected,
        "total-intersection-degree": rep.total_degree,
        # None when no sampled fibre of the correspondence was finite
        "pushforward-degree": rep.pushforward_degree,
    }
    if rep.excess is not None:
        dim = rep.excess.dimension(ctx)
        witnesses["excess-component-dimension"] = dim
        witnesses["excess-component"] = _gens_text(
            Ideal(rep.excess.ring, ctx.groebner(rep.excess.ideal))
        )
        return CheckOutcome(
            NOT_APPLICABLE,
            witnesses=witnesses,
            notes=[
                "the image meets the plane section improperly, in a component of "
                "dimension %d > dim delta, so delta has no multiplicity there" % dim
            ],
        )
    witnesses.update({
        "residual-degree": rep.residual_degree,
        "residual-in-plane-section": rep.residual_in_plane_section,
        "union-certified": rep.split_ok,
    })
    if rep.delta_multiplicity is None:
        witnesses["split-witness"] = rep.witness
        return CheckOutcome(INCONCLUSIVE, witnesses=witnesses)
    witnesses["delta-part-multiplicity"] = str(rep.delta_multiplicity)
    ok = (
        rep.split_ok
        and rep.delta_multiplicity == Fraction(expected)
        and (rep.residual_in_plane_section in (True, None))
    )
    return CheckOutcome(PASS if ok else FAIL, witnesses=witnesses)


def check_join_support(cd: ConeData, ctx: EngineContext) -> CheckOutcome:
    if cd.h != 1:
        return CheckOutcome(
            NOT_APPLICABLE, notes=["join comparison needs a one-dimensional twist line"]
        )
    delta, kind = _section_delta(cd, ctx)
    if delta is None:
        return _no_delta(kind, "in the plane section")
    same, img, sliced = join_support_matches_operator(ConeSchemes(cd, ctx), delta)
    witnesses = {
        "delta": _gens_text(delta),
        "delta-kind": kind,
        "operator-image": _gens_text(img.ideal),
        "join-slice": _gens_text(sliced.ideal),
    }
    return CheckOutcome(PASS if same else FAIL, witnesses=witnesses)


CHECKS: Dict[str, CheckDef] = {}


def _register(name, anchor, summary, randomized, fn):
    CHECKS[name] = CheckDef(name, anchor, summary, randomized, fn)


_register(
    "omega-consistency",
    "section 2.1/2.2 bridge: equation (2.9) graph description vs the explicit system (2.18)",
    "The family graph closure computed from the explicit multihomogeneous "
    "equation system equals the one computed independently as a rational-map "
    "graph closure, after saturation. The map-graph closure G is exact: over the "
    "full product ring it is saturated by one monomial form, variable by "
    "variable. The bare system E is compared with G by two ideal containments, "
    "with no block saturation and no random draw on any path: E = G is the PASS "
    "(an ideal equal to a saturated one is saturated); E not inside G is a FAIL "
    "(some equation does not vanish on the graph); E strictly inside G is "
    "INCONCLUSIVE, naming both ideals, as only a saturation of E could decide it.",
    False,
    check_omega_consistency,
)
_register(
    "prop-2-1",
    "Proposition 2.1, 'whose support contains'",
    "At parameter value 1 the pulled-back family contains the twisted "
    "diagonal C as its only top-dimensional component, with multiplicity 1. "
    "S = sigma = E + f(x) + f(y), with E the bare graph equations, and C, the diagonal "
    "part, are set to t = 1 (exact): "
    "PASS iff V(C) lies in V(S), dim S = dim C and deg S = deg C, as C "
    "is irreducible (the genericity gate certifies X smooth); FAIL when V(C) is not "
    "in V(S), else INCONCLUSIVE (V(C) in V(S) with other dimension or degree "
    "pairs). No omega and no random draw on any path: S is read unsaturated, "
    "as no saturation of it can change what the check reads, and C is prime, so V(C) "
    "lies in V(S) iff S lies in C, one ideal containment. The one saturation is the "
    "diagonal part's by x0, which is exact for every nonzero linear x-form.",
    False,
    check_diagonal_component,
)
_register(
    "expansion-g",
    "equation (2.28) context, 'Consider the expansion along t-1'",
    "The first-order term of the moved hypersurface along the parameter is "
    "nonzero and genuinely depends on the subspace parameter; degenerate "
    "instances are rejected before verification.",
    False,
    check_expansion,
)
_register(
    "w-covering",
    "Proposition 2.4 proof, 'covering map of degree deg(X)'",
    "For h = 1 the first-order pencil factors as x_{n+1} times the polar of X "
    "with respect to c_z = (z0 : 0 : ... : 0 : -z1), the centre of the "
    "z-twisted projection pi_z; so the first-order locus is the plane section "
    "plus the ramification divisor of pi_z: X -> P^n, and pi_z is the covering. "
    "At three random steady z, takes the graph of pi_z with X as its source "
    "(f and the 2x2 minors when c_z is not on X, else the graph closure) and "
    "counts (with multiplicity) its fibre over the image of a random "
    "point of X; PASS iff every count is deg(X). NOT-APPLICABLE for h >= 2, "
    "where the centre is an (h-1)-plane and the fibres have positive dimension.",
    True,
    check_w_covering,
)
_register(
    "prop-2-5",
    "Proposition 2.5 and equation (2.40), 'is a multiple of a plane section class'",
    "The image of a cycle under the r=0 correspondence is supported in a "
    "linear section of matching codimension; the image of a point p is E0 at x = p (exact).",
    True,
    check_image_linear_section,
)
_register(
    "prop-2-6",
    "Proposition 2.6, 'is a class lying in V^h'",
    "For small cycles the parameter-0 end of the cone family is supported "
    "inside the codimension-h plane section. The family (theta + delta) : K^inf, "
    "theta = sigma : (M*diag)^inf with M the product of the blocks' irrelevant "
    "ideals and K = t1*(t0 - t1)*t0*m_z*m_x*m_y, is computed as "
    "(sigma + delta) : K^inf, the same ideal since K lies in rad(M*diag), then as "
    "(sigma(p) : K'^inf) + delta, sigma(p) = sigma at x = p, K' = t1*(t0 - t1)*t0*m_z*m_y. "
    "sigma is E + f(x) + f(y), E the bare graph equations: omega's saturations do not "
    "change the family, as K lies in M. "
    "Exact: setting x = p and t = 0, the divide-outs by t1, t0 - t1 and t0. Monte "
    "Carlo: the z and y saturations, cross-checked at a second prime.",
    True,
    check_family_end,
)
_register(
    "digamma",
    "equations (3.10)-(3.12), Proposition 3.3 proof, 'two reduced components of dimension'",
    "The projection graph over the small subspace splits into exactly two "
    "reduced components of the stated dimension. The dominance-pattern-ok "
    "witness (one component onto the subspace parameter line, the other over "
    "its unsteady point only) records a property of the hand-built components, "
    "which holds by construction; it is not a computed test. The cut graph is "
    "compared with the intersection of the two components by two containments, "
    "with no saturation and no random draw on any path: equality certifies the "
    "union and both multiplicities 1 exactly (PASS); a cut-graph generator "
    "outside it, or a wrong dimension, is a FAIL; a cut graph strictly inside "
    "it is INCONCLUSIVE, as only a saturation could decide it.",
    False,
    check_split_components,
)
_register(
    "example-3-2",
    "Example 3.2, 'have the same support'",
    "The cone operator image of a cycle has the same support as the "
    "hypersurface sliced with the join of the cycle and the twist line.",
    True,
    check_join_support,
)
_register(
    "formula-3-5",
    "equation (3.5), 'deg(X) i([delta]) + zeta_*([delta])'; equation (3.15), "
    "'the same multiplicity m=deg(V^h)=deg(X)'",
    "Pushes a cycle delta of V^h through the operator correspondence "
    "Gamma_delta (its degree over the image is recorded as pushforward-degree), "
    "cuts the image with the plane section H and splits the result into delta "
    "and a residual; PASS iff delta has multiplicity deg(X) and the residual "
    "lies in a plane section. If the cut has a component of dimension > "
    "dim delta, delta has no multiplicity: NOT-APPLICABLE, with that component "
    "named (quadric-s2-h1: the point e0 where the twist line meets H lies on "
    "X, so the line joining e0 and delta lies in the cut). On the cubic "
    "presets the cut is proper, equal to X cut with the span of delta and "
    "e0, of degree deg(X)*deg(delta); Gamma_delta "
    "has degree 1 over its image, so the image is the cycle pushforward; delta "
    "has multiplicity 1 and the residual has degree (deg(X)-1)*deg(delta). "
    "Multiplicity deg(X) would need an empty residual, so read as an identity "
    "of effective cycles the claim fails there (FAIL). Whether (3.5) and (3.15) "
    "mean a class identity up to rational equivalence, in which zeta_*([delta]) "
    "need not be effective, is not settled by this program.",
    True,
    check_operator_degree,
)

CHECK_ORDER = list(CHECKS)
# the E0 fiber certification is not a registered check, so no report runs
# it; only tests do
E0_FIBER_CHECK = CheckDef(
    "e0-fiber",
    "section 2.2, 'is E0'",
    "The graph fiber over (1, unsteady), projected to the two hypersurface "
    "factors, is the r=0 fiber-product scheme.",
    False,
    check_e0_fiber,
)


def _guarded(where: str, fn: Callable, *args):
    """fn(*args), or the INCONCLUSIVE outcome of the exception it raised.

    A resource cap is named in the witnesses.  Any other exception is a
    fault in the program, never a verdict: its traceback goes to stderr and
    the witnesses name it (`internal-error`) and where it was raised (`at`).
    """
    try:
        return fn(*args)
    except ResourceCapExceeded as exc:
        return CheckOutcome(
            INCONCLUSIVE,
            witnesses={"resource-cap": exc.what, "detail": exc.detail},
        )
    except Exception as exc:
        print("internal error in %s:" % where, file=sys.stderr)
        traceback.print_exc()
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return CheckOutcome(
            INCONCLUSIVE,
            witnesses={
                INTERNAL_ERROR: "%s: %s" % (type(exc).__name__, exc),
                "at": "%s:%d in %s" % (os.path.basename(frame.filename),
                                        frame.lineno, frame.name),
            },
        )


def certify_gate(cd: ConeData, ctx: EngineContext) -> Union[GenericityReport, CheckOutcome]:
    """The genericity report, or, when the gate hits a cap or raises, the
    INCONCLUSIVE outcome that every check of the instance then reports; its
    `during` witness names the gate."""
    gate = _guarded(GATE, certify_genericity, cd, ctx)
    if isinstance(gate, CheckOutcome):
        gate.witnesses["during"] = GATE
    return gate


def run_check(
    name: str, cd: ConeData, ctx: EngineContext, genericity: Optional[GenericityReport] = None
) -> CheckOutcome:
    """Run one named check with gating and cap handling."""
    if name not in CHECKS:
        raise KeyError("unknown check %r (valid: %s)" % (name, ", ".join(CHECK_ORDER)))
    cdef = CHECKS[name]
    if genericity is None:
        genericity = certify_gate(cd, ctx)
        if isinstance(genericity, CheckOutcome):
            return genericity
    if genericity.rejected and name != "expansion-g":
        return CheckOutcome(
            REJECTED_GENERICITY,
            witnesses={
                "hypersurface-smooth": genericity.hypersurface_smooth,
                "first-order-nonzero": genericity.pencil.nonzero,
                "first-order-parameter-dependent": genericity.pencil.z_dependent,
            },
            notes=list(genericity.notes),
        )
    if cdef.randomized and cd.field_cfg.kind != "prime-field":
        outcome = CheckOutcome(
            NOT_APPLICABLE,
            notes=[
                "this check samples rational points, and point search needs a "
                "prime field (Fp:<p>), not %s" % cd.field_cfg.spec
            ],
        )
    else:
        outcome = _guarded("check %s" % name, cdef.fn, cd, ctx)
    if genericity.notes and name != "expansion-g":
        outcome.notes = list(outcome.notes) + [
            "genericity-note: %s" % n for n in genericity.notes
        ]
    return outcome


def needs_second_prime(name: str, cd: ConeData) -> bool:
    """Whether the check is re-run at a second prime: it is randomized and
    the field is prime."""
    return CHECKS[name].randomized and cd.field_cfg.kind == "prime-field"


def _alt_prime(p: int) -> int:
    return SECOND_PRIME if p != SECOND_PRIME else DEFAULT_PRIME


def second_prime_data(cd: ConeData, ctx: EngineContext) -> Tuple[ConeData, EngineContext]:
    """The instance over the second prime (SECOND_PRIME, or DEFAULT_PRIME
    when cd is already over SECOND_PRIME), and a fresh context with ctx's
    caps, cache and seed."""
    cd2 = replace(cd, field_cfg=FieldConfig(kind="prime-field", p=_alt_prime(cd.field_cfg.p)))
    return cd2, EngineContext(caps=ctx.caps, cache=ctx.cache, seed=ctx.seed)


def run_second_prime(
    names: List[str], cd2: ConeData, ctx2: EngineContext
) -> Dict[str, CheckOutcome]:
    """The outcome of each named check over cd2 (see second_prime_data),
    behind one genericity gate and through one context."""
    gate = certify_gate(cd2, ctx2)
    if isinstance(gate, CheckOutcome):
        return {name: gate for name in names}
    return {name: run_check(name, cd2, ctx2, gate) for name in names}


def merge_two_prime(
    name: str, cd: ConeData, first: CheckOutcome, second: Optional[CheckOutcome]
) -> CheckOutcome:
    """The reported outcome of a check from its outcomes at the two primes.

    A check that needs no second prime, or that has no second outcome (the
    first prime's gate decided it), reports its first outcome; so does a
    fault at the first prime.  A fault at the second prime is reported as
    that fault, and verdicts that differ as a two-prime disagreement.
    """
    if second is None or not needs_second_prime(name, cd) or INTERNAL_ERROR in first.witnesses:
        return first
    alt_p = _alt_prime(cd.field_cfg.p)
    if INTERNAL_ERROR in second.witnesses:
        # a fault at the second prime is reported as one, not as a disagreement
        return CheckOutcome(INCONCLUSIVE, witnesses=dict(second.witnesses, **{"second-prime": alt_p}),
                            notes=first.notes)
    if first.status != second.status:
        return CheckOutcome(
            INCONCLUSIVE,
            witnesses={
                "two-prime-disagreement": {
                    "p%d" % cd.field_cfg.p: first.status,
                    "p%d" % alt_p: second.status,
                },
                "first-witnesses": first.witnesses,
                "second-witnesses": second.witnesses,
            },
            notes=first.notes,
        )
    merged = dict(first.witnesses)
    merged["second-prime"] = alt_p
    merged["second-prime-status"] = second.status
    return CheckOutcome(first.status, witnesses=merged, notes=first.notes)


def run_check_two_prime(
    name: str, cd: ConeData, ctx: EngineContext, genericity: Optional[GenericityReport] = None
) -> CheckOutcome:
    """Randomized checks re-run at a second prime; verdicts must agree."""
    first = run_check(name, cd, ctx, genericity)
    second = None
    if needs_second_prime(name, cd) and INTERNAL_ERROR not in first.witnesses:
        second = run_second_prime([name], *second_prime_data(cd, ctx))[name]
    return merge_two_prime(name, cd, first, second)
