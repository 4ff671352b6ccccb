"""Check runner, scenario config, report determinism, and the CLI."""

import dataclasses
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from conekit import checks, cone, report
from conekit.checks import (
    CHECK_ORDER,
    CHECKS,
    E0_FIBER_CHECK,
    FAIL,
    INCONCLUSIVE,
    INTERNAL_ERROR,
    NOT_APPLICABLE,
    PASS,
    REJECTED_GENERICITY,
    CheckOutcome,
    merge_two_prime,
    run_check,
    run_check_two_prime,
    run_second_prime,
    second_prime_data,
)
from conekit.cache import BasisCache, basis_request_key
from conekit.cli import main
from conekit.fields import DEFAULT_PRIME, FieldConfig, PrimeField, SECOND_PRIME
from conekit.groebner import ResourceCaps
from conekit.ideals import EngineContext
from conekit.report import (
    ConfigError,
    ScenarioConfig,
    exit_status,
    load_scenario,
    report_bytes,
    report_has_fail,
    run_scenario,
)
from conekit.ring import AmbientSpace, PolyRing

CFG = FieldConfig.parse("Fp:%d" % DEFAULT_PRIME)
CTX = EngineContext(seed=0)

FAST_CHECKS = "expansion-g,omega-consistency,digamma"


def quadric():
    return cone.preset("quadric-s2-h1", CFG)


# ---------------------------------------------------------------------------
# check runner semantics


def test_registry_is_complete():
    assert set(CHECK_ORDER) == set(CHECKS)
    for c in CHECKS.values():
        assert c.anchor and c.summary


def test_unknown_check_raises():
    with pytest.raises(KeyError):
        run_check("no-such-check", quadric(), CTX)


def test_e0_fiber_check_passes():
    out = E0_FIBER_CHECK.fn(quadric(), CTX)
    assert out.status == PASS


def test_rejected_genericity_gates_other_checks():
    cd = cone.ConeData(n=3, h=1, f_text="x0^3 + x1^3 + x2^3", field_cfg=CFG)
    out = run_check("digamma", cd, CTX)
    assert out.status == REJECTED_GENERICITY
    # the expansion check itself still reports the degeneracy directly
    out2 = run_check("expansion-g", cd, CTX)
    assert out2.status == REJECTED_GENERICITY
    assert "first-order-term" in out2.witnesses


def test_resource_cap_maps_to_inconclusive():
    tiny = EngineContext(
        caps=ResourceCaps(max_basis=4000, max_pairs=200000,
                          max_coeff_bits=100000, max_reduction_steps=50),
        seed=0,
    )
    out = run_check("prop-2-1", quadric(), tiny)
    assert out.status == INCONCLUSIVE
    assert out.witnesses.get("resource-cap") == "reduction-steps"


def test_not_applicable_cases():
    # n - h < 1 leaves no admissible delta for the family-end check
    cd = cone.ConeData(n=2, h=2, f_text="x0*x3 - x1*x2", field_cfg=CFG)
    out = checks.check_family_end(cd, CTX)
    assert out.status == NOT_APPLICABLE
    # the join comparison needs h = 1
    cd2 = cone.preset("cubic-3f-h2", CFG)
    out2 = checks.check_join_support(cd2, CTX)
    assert out2.status == NOT_APPLICABLE
    # for h >= 2 the twisted projection has positive-dimensional fibres
    out3 = checks.check_w_covering(cd2, CTX)
    assert out3.status == NOT_APPLICABLE and out3.notes
    # on the quadric the image meets the plane section in the line joining
    # e0 and delta, so delta has no multiplicity there
    out4 = checks.check_operator_degree(quadric(), CTX)
    assert out4.status == NOT_APPLICABLE
    assert out4.witnesses["excess-component-dimension"] == 1
    assert out4.witnesses["excess-component"]
    assert "delta-part-multiplicity" not in out4.witnesses


@pytest.mark.parametrize(
    "name", ["w-covering", "prop-2-5", "prop-2-6", "example-3-2", "formula-3-5"]
)
def test_point_checks_not_applicable_over_rationals(name):
    # point search needs a prime field; over Q these checks say so
    cd = cone.preset("quadric-s2-h1", FieldConfig.parse("Q"))
    out = run_check_two_prime(name, cd, CTX)
    assert out.status == NOT_APPLICABLE
    assert any("needs a prime field" in n for n in out.notes)
    assert "second-prime" not in out.witnesses


def test_over_rationals_exactly_the_randomized_checks_are_not_applicable(monkeypatch):
    # every check is stubbed to PASS, so only run_check's own rule can make
    # one NOT-APPLICABLE; the gate is built by hand for the same reason
    cd = cone.preset("quadric-s2-h1", FieldConfig.parse("Q"))
    gate = cone.GenericityReport(True, True, True, cone.expansion_pencil(cd), rejected=False)
    for name in CHECK_ORDER:
        monkeypatch.setitem(CHECKS, name, dataclasses.replace(
            CHECKS[name], fn=lambda cd, ctx: CheckOutcome(PASS)))
    statuses = {name: run_check(name, cd, CTX, gate).status for name in CHECK_ORDER}
    not_applicable = {name for name, s in statuses.items() if s == NOT_APPLICABLE}
    assert not_applicable == {name for name in CHECK_ORDER if CHECKS[name].randomized}
    assert not_applicable == {"w-covering", "prop-2-5", "prop-2-6", "example-3-2", "formula-3-5"}
    assert set(statuses.values()) == {PASS, NOT_APPLICABLE}


def test_two_prime_wrapper_records_second_prime():
    out = run_check_two_prime("prop-2-5", quadric(), CTX)
    assert out.status == PASS
    assert out.witnesses["second-prime"] == SECOND_PRIME
    assert out.witnesses["second-prime-status"] == PASS


def test_two_prime_wrapper_skips_rationals():
    cd = cone.preset("quadric-s2-h1", FieldConfig.parse("Q"))
    out = run_check_two_prime("expansion-g", cd, CTX)
    assert out.status == PASS
    assert "second-prime" not in out.witnesses


# ---------------------------------------------------------------------------
# scenario config


def test_config_requires_exactly_one_instance():
    with pytest.raises(ConfigError):
        ScenarioConfig()
    with pytest.raises(ConfigError):
        ScenarioConfig(preset_name="quadric-s2-h1", cone_literal=(2, 1, "x0^2"))


def test_config_rejects_empty_or_unknown_checks():
    with pytest.raises(ConfigError):
        ScenarioConfig(preset_name="quadric-s2-h1", checks=())
    with pytest.raises(ConfigError):
        ScenarioConfig(preset_name="quadric-s2-h1", checks=("bogus",))


def test_config_rejects_bad_caps_and_preset():
    with pytest.raises(ConfigError):
        ScenarioConfig(preset_name="nope")
    bad = ResourceCaps(max_basis=0, max_pairs=1, max_coeff_bits=1, max_reduction_steps=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(preset_name="quadric-s2-h1", caps=bad)


def test_config_round_trip():
    cfg = ScenarioConfig(preset_name="quadric-s2-h1", seed=3,
                         checks=("expansion-g",), field="Fp:32003")
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    lit = ScenarioConfig(cone_literal=(2, 1, "x0*x3 - x1*x2"))
    assert ScenarioConfig.from_dict(lit.to_dict()) == lit


def test_load_scenario_from_file_and_preset(tmp_path):
    assert load_scenario("cubic-3f-h1").preset_name == "cubic-3f-h1"
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"preset": "quadric-s2-h1", "seed": 5,
                             "checks": ["expansion-g"]}))
    cfg = load_scenario(str(p))
    assert cfg.seed == 5 and cfg.checks == ("expansion-g",)
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_scenario(str(bad))


# ---------------------------------------------------------------------------
# reports


def fast_cfg(**kw):
    base = dict(preset_name="quadric-s2-h1", checks=tuple(FAST_CHECKS.split(",")))
    base.update(kw)
    return ScenarioConfig(**base)


def test_report_shape_and_summary():
    rep = run_scenario(fast_cfg())
    assert rep["artifact"]["name"] == "conekit"
    assert rep["instance"]["field"] == "Fp:%d" % DEFAULT_PRIME
    assert [r["name"] for r in rep["checks"]] == FAST_CHECKS.split(",")
    for r in rep["checks"]:
        assert r["status"] == PASS
        assert r["paper-anchor"]
        assert "wall-time" not in r
    assert rep["summary"] == {PASS: 3}
    assert not report_has_fail(rep)


def test_report_bytes_deterministic():
    a = report_bytes(run_scenario(fast_cfg(seed=11)))
    b = report_bytes(run_scenario(fast_cfg(seed=11)))
    assert a == b
    c = report_bytes(run_scenario(fast_cfg(seed=12)))
    # different seed changes the embedded scenario, hence the bytes
    assert a != c


def test_report_timings_opt_in():
    rep = run_scenario(fast_cfg(timings=True))
    assert all("wall-time" in r for r in rep["checks"])


def test_inconclusive_and_fail_carry_witnesses():
    tiny = ResourceCaps(max_basis=4000, max_pairs=200000,
                        max_coeff_bits=100000, max_reduction_steps=50)
    rep = run_scenario(fast_cfg(checks=("prop-2-1",), caps=tiny))
    (r,) = rep["checks"]
    assert r["status"] == INCONCLUSIVE and r["witnesses"]


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--scenario", "quadric-s2-h1",
               "--checks", FAST_CHECKS, "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["summary"] == {PASS: 3}
    err = capsys.readouterr().err
    for name in FAST_CHECKS.split(","):
        assert name in err


def test_cli_verify_stdout_and_overrides(capsys):
    rc = main(["verify", "--scenario", "quadric-s2-h1",
               "--checks", "expansion-g", "--field", "Fp:32003", "--seed", "9"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["instance"]["field"] == "Fp:32003"
    assert rep["scenario"]["seed"] == 9


def test_cli_verify_config_error_exit_2(capsys):
    assert main(["verify", "--scenario", "quadric-s2-h1", "--checks", "bogus"]) == 2
    assert "config error" in capsys.readouterr().err


def _boom(cd, ctx):
    raise ZeroDivisionError("injected")


@pytest.mark.parametrize("fail_too,code", [(False, 3), (True, 1)])
def test_cli_verify_check_that_raises_is_inconclusive(monkeypatch, capsys, fail_too, code):
    # exit 3, not 1 (the code of a FAIL verdict); a real FAIL still exits 1
    monkeypatch.setitem(CHECKS, "digamma", dataclasses.replace(CHECKS["digamma"], fn=_boom))
    if fail_too:
        monkeypatch.setitem(CHECKS, "expansion-g", dataclasses.replace(
            CHECKS["expansion-g"], fn=lambda cd, ctx: CheckOutcome(FAIL)))
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--checks", "expansion-g,digamma"])
    assert rc == code
    captured = capsys.readouterr()
    rec = {r["name"]: r for r in json.loads(captured.out)["checks"]}
    assert rec["expansion-g"]["status"] == (FAIL if fail_too else PASS)
    assert rec["digamma"]["status"] == INCONCLUSIVE
    assert rec["digamma"]["witnesses"][INTERNAL_ERROR] == "ZeroDivisionError: injected"
    assert rec["digamma"]["witnesses"]["at"].startswith("test_checks_cli.py:")
    assert "internal error in check digamma" in captured.err and "Traceback" in captured.err


def test_check_that_raises_at_the_second_prime_names_the_fault(monkeypatch, capsys):
    def second_prime_only(cd, ctx):
        if cd.field_cfg.p == SECOND_PRIME:
            raise RuntimeError("injected")
        return CheckOutcome(PASS)

    assert CHECKS["prop-2-5"].randomized
    monkeypatch.setitem(CHECKS, "prop-2-5", dataclasses.replace(CHECKS["prop-2-5"], fn=second_prime_only))
    out = run_check_two_prime("prop-2-5", quadric(), EngineContext(seed=0))
    assert out.status == INCONCLUSIVE
    assert out.witnesses[INTERNAL_ERROR] == "RuntimeError: injected"
    assert out.witnesses["second-prime"] == SECOND_PRIME


AGREE = CheckOutcome(PASS, {"w": 1}, ["n"])
DISAGREE = CheckOutcome(FAIL, {"w": 2})
FAULT = CheckOutcome(INCONCLUSIVE, {INTERNAL_ERROR: "RuntimeError: x", "at": "f.py:1 in g"})


@pytest.mark.parametrize("name,field,first,second,expected", [
    # agreement: the first outcome, with the second prime and its status
    ("prop-2-5", DEFAULT_PRIME, AGREE, CheckOutcome(PASS, {"w": 3}),
     CheckOutcome(PASS, {"w": 1, "second-prime": SECOND_PRIME, "second-prime-status": PASS}, ["n"])),
    # the second prime is the default one when the first is SECOND_PRIME
    ("prop-2-5", SECOND_PRIME, AGREE, CheckOutcome(PASS),
     CheckOutcome(PASS, {"w": 1, "second-prime": DEFAULT_PRIME, "second-prime-status": PASS}, ["n"])),
    ("prop-2-5", DEFAULT_PRIME, AGREE, DISAGREE, CheckOutcome(INCONCLUSIVE, {
        "two-prime-disagreement": {"p%d" % DEFAULT_PRIME: PASS, "p%d" % SECOND_PRIME: FAIL},
        "first-witnesses": {"w": 1},
        "second-witnesses": {"w": 2},
    }, ["n"])),
    # a fault at the second prime is that fault, not a disagreement
    ("prop-2-5", DEFAULT_PRIME, AGREE, FAULT,
     CheckOutcome(INCONCLUSIVE, dict(FAULT.witnesses, **{"second-prime": SECOND_PRIME}), ["n"])),
    # a fault at the first prime stands; the second outcome is discarded
    ("prop-2-5", DEFAULT_PRIME, FAULT, AGREE, FAULT),
    # a check decided by the first prime's gate has no second outcome
    ("prop-2-5", DEFAULT_PRIME, FAULT, None, FAULT),
    # not randomized, or not over a prime field: no second prime
    ("digamma", DEFAULT_PRIME, AGREE, DISAGREE, AGREE),
    ("prop-2-5", None, AGREE, DISAGREE, AGREE),
])
def test_merge_two_prime(name, field, first, second, expected):
    cfg = FieldConfig.parse("Q" if field is None else "Fp:%d" % field)
    assert merge_two_prime(name, cone.preset("quadric-s2-h1", cfg), first, second) == expected


@pytest.fixture
def two_cores(monkeypatch):
    # the second prime forks only where the process may run on two cores
    monkeypatch.setattr(report, "_cores", lambda: 2)


def _trivial_randomized_checks(monkeypatch):
    for name, cdef in CHECKS.items():
        if cdef.randomized:
            monkeypatch.setitem(CHECKS, name, dataclasses.replace(
                cdef, fn=lambda cd, ctx: CheckOutcome(PASS)))


def test_one_genericity_gate_per_prime(monkeypatch, two_cores):
    calls = []

    def counted(cd, ctx):
        calls.append(cd.field_cfg.p)
        return cone.certify_genericity(cd, ctx)

    _trivial_randomized_checks(monkeypatch)
    monkeypatch.setattr(checks, "certify_genericity", counted)
    randomized = [n for n in CHECK_ORDER if CHECKS[n].randomized]
    cfg = ScenarioConfig(preset_name="quadric-s2-h1", checks=("expansion-g", *randomized))
    rep = run_scenario(cfg)
    assert sum(r["witnesses"].get("second-prime") == SECOND_PRIME for r in rep["checks"]) == len(randomized)
    # the second prime's gate ran in the child, where this process cannot count it
    assert calls == [DEFAULT_PRIME]
    outs = run_second_prime(randomized, *second_prime_data(cfg.cone_data(), EngineContext(seed=0)))
    assert calls == [DEFAULT_PRIME, SECOND_PRIME]
    assert [o.status for o in outs.values()] == [PASS] * len(randomized)


def _raise_in_child(*args):
    raise RuntimeError("injected in the child")


def _exit_without_result(*args):
    os._exit(0)


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fault,message,tracebacks", [
    (_raise_in_child, "second-prime process exited with status 1", 1),
    (_exit_without_result, "second-prime process exited with status 0 and no result", 0),
    (_killed, "second-prime process killed by signal %d" % signal.SIGKILL, 0),
])
def test_cli_verify_second_prime_process_fault_exits_3(monkeypatch, capfd, two_cores, fault, message,
                                                       tracebacks):
    # the child inherits the patched function
    monkeypatch.setattr(report, "run_second_prime", fault)
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--checks", "expansion-g,prop-2-5,w-covering"])
    assert rc == 3
    captured = capfd.readouterr()
    rec = {r["name"]: r for r in json.loads(captured.out)["checks"]}
    assert rec["expansion-g"]["status"] == PASS
    for name in ("prop-2-5", "w-covering"):
        assert rec[name]["status"] == INCONCLUSIVE
        assert rec[name]["witnesses"] == {INTERNAL_ERROR: message, "second-prime": SECOND_PRIME}
    assert captured.err.count("Traceback") == tracebacks
    if tracebacks:
        assert "internal error in the second-prime process" in captured.err
        assert "RuntimeError: injected in the child" in captured.err


def test_cli_verify_check_that_raises_at_the_second_prime_exits_3(monkeypatch, capfd, two_cores):
    def second_prime_only(cd, ctx):
        if cd.field_cfg.p == SECOND_PRIME:
            raise RuntimeError("injected")
        return CheckOutcome(PASS)

    monkeypatch.setitem(CHECKS, "prop-2-5", dataclasses.replace(CHECKS["prop-2-5"], fn=second_prime_only))
    assert main(["verify", "--scenario", "quadric-s2-h1", "--checks", "prop-2-5"]) == 3
    captured = capfd.readouterr()
    (rec,) = json.loads(captured.out)["checks"]
    assert rec["witnesses"][INTERNAL_ERROR] == "RuntimeError: injected"
    assert rec["witnesses"]["second-prime"] == SECOND_PRIME
    # printed once, by the child
    assert captured.err.count("Traceback") == 1
    assert captured.err.count("internal error in check prop-2-5") == 1


@pytest.mark.parametrize("cores", [2, 1])
def test_cli_verify_check_that_raises_at_both_primes_prints_two_tracebacks(monkeypatch, capfd, cores):
    # the second prime starts before the first prime's fault is known, so it
    # runs and prints its own traceback, forked or not; the report keeps the
    # first fault
    monkeypatch.setitem(CHECKS, "prop-2-5", dataclasses.replace(CHECKS["prop-2-5"], fn=_boom))
    monkeypatch.setattr(report, "_cores", lambda: cores)
    assert main(["verify", "--scenario", "quadric-s2-h1", "--checks", "prop-2-5"]) == 3
    captured = capfd.readouterr()
    (rec,) = json.loads(captured.out)["checks"]
    assert rec["witnesses"][INTERNAL_ERROR] == "ZeroDivisionError: injected"
    assert "second-prime" not in rec["witnesses"]
    assert captured.err.count("Traceback") == 2
    assert captured.err.count("internal error in check prop-2-5") == 2


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _slow_second_prime(*args):
    time.sleep(60)
    return {}


def test_run_scenario_leaves_no_process(two_cores):
    rep = run_scenario(fast_cfg(checks=("expansion-g", "prop-2-5")))
    assert rep["checks"][1]["witnesses"]["second-prime"] == SECOND_PRIME
    _assert_no_child()


def test_parent_that_raises_kills_the_child(monkeypatch, two_cores):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(report, "run_second_prime", _slow_second_prime)
    monkeypatch.setattr(report, "run_check", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_scenario(fast_cfg(checks=("prop-2-5",)))
    assert time.monotonic() - start < 30
    _assert_no_child()


def test_gate_that_fails_kills_the_child(monkeypatch, two_cores):
    gate = CheckOutcome(INCONCLUSIVE, {"resource-cap": "basis-size", "during": checks.GATE})
    monkeypatch.setattr(report, "run_second_prime", _slow_second_prime)
    monkeypatch.setattr(report, "certify_gate", lambda cd, ctx: gate)
    start = time.monotonic()
    rep = run_scenario(fast_cfg(checks=("prop-2-5", "w-covering")))
    assert time.monotonic() - start < 30
    assert [r["witnesses"] for r in rep["checks"]] == [gate.witnesses] * 2
    _assert_no_child()


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def _must_not_fork():
    raise AssertionError("forked where the re-runs must run in-process")


@pytest.mark.parametrize("why", ["missing", "fails", "threads", "one-core"])
def test_second_prime_in_process_without_fork(monkeypatch, two_cores, why):
    cfg = fast_cfg(checks=("expansion-g", "prop-2-5", "w-covering"))
    forked = report_bytes(run_scenario(cfg))
    if why == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _fork_fails if why == "fails" else _must_not_fork)
    if why == "one-core":
        monkeypatch.setattr(report, "_cores", lambda: 1)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if why == "threads":
        other.start()
    try:
        assert report_bytes(run_scenario(cfg)) == forked
    finally:
        release.set()
        if why == "threads":
            other.join(60)
            assert not other.is_alive()


def test_cli_verify_gate_cap_is_inconclusive(capsys):
    # the gate hits the basis cap before any check runs: INCONCLUSIVE, exit 0
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--cap-basis", "1",
               "--checks", "expansion-g,omega-consistency"])
    assert rc == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    expected = {"resource-cap": "basis-size", "detail": "2", "during": checks.GATE}
    assert rep["genericity"] == {"status": INCONCLUSIVE, "witnesses": expected}
    for rec in rep["checks"]:
        assert rec["status"] == INCONCLUSIVE
        assert rec["witnesses"] == expected
    assert "Traceback" not in captured.err


def test_cli_verify_gate_fault_exits_3(monkeypatch, capsys):
    def boom(cd, ctx):
        raise RuntimeError("injected")

    monkeypatch.setattr(checks, "certify_genericity", boom)
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--checks", "expansion-g"])
    assert rc == 3
    captured = capsys.readouterr()
    rec = json.loads(captured.out)["checks"][0]
    assert rec["status"] == INCONCLUSIVE
    assert rec["witnesses"][INTERNAL_ERROR] == "RuntimeError: injected"
    assert rec["witnesses"]["during"] == checks.GATE
    assert rec["witnesses"]["at"].startswith("test_checks_cli.py:")
    assert "internal error in genericity gate" in captured.err


def test_run_check_without_report_guards_the_gate():
    out = run_check("omega-consistency", quadric(),
                    EngineContext(caps=ResourceCaps(max_basis=1), seed=0))
    assert out.status == INCONCLUSIVE
    assert out.witnesses["resource-cap"] == "basis-size"
    assert out.witnesses["during"] == checks.GATE


@pytest.mark.parametrize("cone_data,message", [
    ({"n": 2, "h": 1, "f": "x0^2 + x1"}, "f must be a nonzero homogeneous form in x0..x3"),
    ({"n": 2, "h": 1, "f": "x0^2 + q7^2"}, "f: unknown variable 'q7'"),
    ({"n": 2, "h": 1, "f": "0"}, "f must be a nonzero homogeneous form in x0..x3"),
    ({"n": 1, "h": 1, "f": "x0^2"}, "need n >= 2"),
    ({"n": 2.5, "h": 1, "f": "x0^2"},
     "cone-data needs integer n, h and text f, not {'n': 2.5, 'h': 1, 'f': 'x0^2'}"),
    ({"n": 2, "h": True, "f": "x0^2"},
     "cone-data needs integer n, h and text f, not {'n': 2, 'h': True, 'f': 'x0^2'}"),
    ({"n": 2, "h": 1, "f": "1/0*x0^2 + x1^2 + x2^2 + x3^2"},
     "f: zero denominator in coefficient '1/0'"),
    # 31991 is the default field's modulus, so this denominator is 0 there
    ({"n": 2, "h": 1, "f": "1/31991*x0^2 + x1^2 + x2^2 + x3^2"},
     "f: zero denominator in coefficient '1/31991'"),
])
def test_cli_verify_bad_cone_data_exit_2(tmp_path, capsys, cone_data, message):
    # before validation these ended in a traceback and exit 1, the code that
    # means FAIL, or (a float or boolean n or h) were silently truncated
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"cone-data": cone_data, "checks": ["expansion-g"]}))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    with pytest.raises(ConfigError):
        load_scenario(str(path))


@pytest.mark.parametrize("extra,message", [
    ({"seed": "abc"}, "seed must be an integer, not 'abc'"),
    ({"caps": {"max-basis": "x"}}, "cap 'max-basis' must be an integer, not 'x'"),
    ({"caps": []}, "caps must be a JSON object"),
    ({"seed": 1.5}, "seed must be an integer, not 1.5"),
    ({"seed": True}, "seed must be an integer, not True"),
    ({"field": 5}, "field must be a string, not 5"),
    ({"checks": 5}, "checks must be a list of check names, not 5"),
    ({"checks": ["expansion-g", 5]}, "checks must be a list of check names, not ['expansion-g', 5]"),
    ({"cache-dir": 5}, "cache-dir must be a path string, not 5"),
    ({"out": 1}, "out must be a path string, not 1"),
    ({"out": 5}, "out must be a path string, not 5"),
    ({"timings": "no"}, "timings must be true or false, not 'no'"),
    ({"preset": []}, "preset must be a preset name, not []"),
    ({"preset": {}}, "preset must be a preset name, not {}"),
])
def test_cli_verify_bad_scenario_values_exit_2(tmp_path, capsys, extra, message):
    # each of these ended in a traceback and exit 1, the code that means FAIL,
    # or was misread: a float or boolean seed as an integer, "timings": "no"
    # as true, and an integer "out" as a file descriptor; a list or object
    # as preset raised TypeError
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict({"preset": "quadric-s2-h1", "checks": ["expansion-g"]}, **extra)))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    with pytest.raises(ConfigError):
        load_scenario(str(path))


@pytest.mark.parametrize("where", ["scenario", "flag"])
@pytest.mark.parametrize("key,target,message", [
    ("cache-dir", "a-file", "cache-dir '{}' is not a usable directory"),
    ("out", "missing/r.json", "out '{}': directory '{}' does not exist"),
    ("out", ".", "out '{}' is a directory"),
])
def test_cli_verify_unusable_path_exit_2(tmp_path, monkeypatch, capsys, where, key, target, message):
    # a cache-dir naming a file and an out path in a missing directory ended
    # in a traceback and exit 1, the code that means FAIL, after the checks ran
    (tmp_path / "a-file").write_text("")
    path = str(tmp_path / target)
    scenario = {"preset": "quadric-s2-h1", "checks": ["expansion-g"]}
    argv = ["verify", "--scenario"]
    if where == "scenario":
        scenario[key] = path
    else:
        argv = ["verify", {"cache-dir": "--cache", "out": "--out"}[key], path, "--scenario"]
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))

    def no_run(configs, jobs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("conekit.cli.run_scenarios", no_run)
    assert main(argv + [str(spath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(path, os.path.dirname(path)))
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["flag", "scenarios"])
def test_cli_verify_shared_out_path_exit_2(tmp_path, monkeypatch, capsys, where):
    # two scenarios written to one path left only the second report, and
    # the run exited 0; the second scenario's path names the same file by
    # another spelling
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    if where == "flag":
        argv = ["verify", "--scenario", "quadric-s2-h1", "--scenario", "cubic-3f-h1",
                "--checks", "expansion-g", "--out", "r.json"]
        second = "r.json"
    else:
        second = os.path.join("sub", os.pardir, "r.json")
        argv = ["verify", "--checks", "expansion-g"]
        for i, (preset, out) in enumerate((("quadric-s2-h1", "r.json"), ("cubic-3f-h1", second))):
            (tmp_path / ("s%d.json" % i)).write_text(json.dumps({"preset": preset, "out": out}))
            argv += ["--scenario", "s%d.json" % i]

    def no_run(configs, jobs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("conekit.cli.run_scenarios", no_run)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: out %r is the report path of two scenarios\n" % second)
    assert not (tmp_path / "r.json").exists()


def test_exit_status_ranks_fail_over_fault_over_clean():
    def rep(status, raised=False):
        return {"checks": [{"status": status,
                            "witnesses": {INTERNAL_ERROR: "RuntimeError: x"} if raised else {}}]}

    clean, fault, fail = rep(PASS), rep(INCONCLUSIVE, raised=True), rep(FAIL)
    assert exit_status([]) == 0
    assert exit_status([clean, rep(NOT_APPLICABLE), rep(INCONCLUSIVE)]) == 0
    assert exit_status([clean, fault]) == 3
    assert exit_status([fault, fail]) == exit_status([fail, clean]) == 1


@pytest.mark.parametrize("spec", ["Fp:4", "Fp:x", "Z"])
def test_cli_verify_bad_field_exit_2(spec, capsys):
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--checks", "expansion-g", "--field", spec])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cap-basis", "--cap-bits"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_verify_nonpositive_cap_exit_2(flag, value, capsys):
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--checks", "expansion-g", flag, value])
    assert rc == 2
    assert "resource caps must be positive" in capsys.readouterr().err


def test_cli_verify_cap_overrides_reach_report(capsys):
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--checks", "expansion-g",
               "--cap-basis", "5000", "--cap-bits", "7"])
    assert rc == 0
    caps = json.loads(capsys.readouterr().out)["scenario"]["caps"]
    assert caps["max-basis"] == 5000 and caps["max-coeff-bits"] == 7


def test_cli_verify_rationals_point_check_exit_0(capsys):
    # an exception escaping main would exit 1, the code that means FAIL
    rc = main(["verify", "--scenario", "quadric-s2-h1", "--field", "Q", "--checks", "w-covering"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert rec["status"] == NOT_APPLICABLE


def test_cli_verify_jobs_parallel(tmp_path, capsys):
    rc = main(["verify", "--scenario", "quadric-s2-h1",
               "--scenario", "quadric-s2-h1",
               "--checks", "expansion-g", "--jobs", "2"])
    assert rc == 0
    blobs = capsys.readouterr().out
    # two identical reports back to back
    assert blobs.count('"artifact"') == 2


# `conekit verify` with the run_scenario of the scenario at seed 1 replaced
# by one that SIGKILLs its process, as the OOM killer would
KILLED_WORKER_RUN = """
import os, signal, sys
from conekit import cli, report

real_run_scenario = report.run_scenario

def dying_run_scenario(cfg):
    if cfg.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_run_scenario(cfg)

report.run_scenario = dying_run_scenario
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_verify_killed_pool_worker_exit_3(tmp_path):
    # a multiprocessing.Pool never answers the task of a worker that died,
    # so the run used to hang; the pool now reports the death
    argv = ["verify", "--jobs", "2"]
    for seed in (0, 1):
        path = tmp_path / ("s%d.json" % seed)
        path.write_text(json.dumps({"preset": "quadric-s2-h1", "checks": ["expansion-g"],
                                    "seed": seed}))
        argv += ["--scenario", str(path)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cone.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER_RUN] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("internal error:") == 1


RUN_PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_presets.py")

# run_presets.main after a patch of conekit (the text of the patch follows)
PATCHED_PRESETS_RUN = """
import dataclasses, importlib.util, os, signal, sys
from conekit import checks, report
%s
spec = importlib.util.spec_from_file_location("run_presets", sys.argv[1])
run_presets = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_presets)
sys.exit(run_presets.main(sys.argv[2:]))
"""

KILLED_PRESETS_WORKER = """
real_run_scenario = report.run_scenario

def dying_run_scenario(cfg):
    if (cfg.preset_name, cfg.field) == ("cubic-3f-h2", "Fp:32003"):
        os.kill(os.getpid(), signal.SIGKILL)
    return real_run_scenario(cfg)

report.run_scenario = dying_run_scenario
"""

RAISING_EXPANSION_G = """
def boom(cd, ctx):
    raise ZeroDivisionError("injected")

checks.CHECKS["expansion-g"] = dataclasses.replace(checks.CHECKS["expansion-g"], fn=boom)
"""


def _run_presets_patched(patch, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cone.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", PATCHED_PRESETS_RUN % patch, RUN_PRESETS]
                          + list(argv), env=env, capture_output=True, text=True, timeout=60)


def test_run_presets_killed_pool_worker_exit_3(tmp_path):
    # exit 1 means a FAIL there, so a dead worker must not end in a traceback
    proc = _run_presets_patched(KILLED_PRESETS_WORKER, "--jobs", "2", "--checks", "expansion-g",
                                "--out-dir", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("internal error:") == 1
    assert "Traceback" not in proc.stderr


IMPORT_FLOOR_RUN = """
import importlib.util, json, sys
import conekit, conekit.report, conekit.checks, conekit.cli
spec = importlib.util.spec_from_file_location("run_presets", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(json.dumps(sorted(sys.modules)))
"""


def test_import_loads_neither_hashlib_nor_pool_machinery():
    # a fresh interpreter, since pytest and hypothesis import hashlib here;
    # libcrypto and the process pool cost a serial run several MiB
    src = os.path.dirname(os.path.dirname(os.path.abspath(cone.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", IMPORT_FLOOR_RUN, RUN_PRESETS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "conekit.cli" in loaded
    heavy = {"hashlib", "_hashlib", "multiprocessing", "concurrent.futures"}
    assert not heavy & loaded


def test_run_presets_check_that_raises_exit_3(tmp_path):
    # every cell reads INCONCLUSIVE and none FAIL; this exited 0
    proc = _run_presets_patched(RAISING_EXPANSION_G, "--checks", "expansion-g",
                                "--out-dir", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    cells = [c for path in sorted(tmp_path.iterdir())
             for c in json.loads(path.read_text())["checks"]]
    assert len(cells) == 6
    assert all(c["status"] == INCONCLUSIVE for c in cells)
    assert all(c["witnesses"][INTERNAL_ERROR] == "ZeroDivisionError: injected" for c in cells)


def test_run_scenarios_pool_workers_do_not_fork(monkeypatch, two_cores):
    # the pool's initializer runs in each worker before its first scenario;
    # this pool runs both here, where os.fork may not be called after it
    class InProcessPool:
        def __init__(self, workers, initializer):
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfgs = [fast_cfg(checks=("expansion-g", "prop-2-5", "w-covering")),
            fast_cfg(preset_name="cubic-3f-h2", checks=("prop-2-5",))]
    serial = [report_bytes(run_scenario(cfg)) for cfg in cfgs]
    monkeypatch.setattr(report, "_FORK_SECOND_PRIME", True)  # restored after the test
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "fork", _must_not_fork)
    assert [report_bytes(r) for r in report.run_scenarios(cfgs, 2)] == serial


def test_run_scenario_retains_no_memory(monkeypatch):
    # five scenarios after a warm-up keep none of their work: a memo or a
    # cache shared across scenarios would hold about 530 KiB per seed here
    monkeypatch.setattr(report, "_FORK_SECOND_PRIME", False)  # trace both primes
    light = tuple(c for c in CHECK_ORDER if c not in ("prop-2-1", "prop-2-6"))
    cfgs = [fast_cfg(checks=light, seed=seed) for seed in range(6)]
    run_scenario(cfgs[0])
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for cfg in cfgs[1:]:
            run_scenario(cfg)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024


@pytest.mark.parametrize("jobs,n_configs", [(1, 2), (3, 1)])
def test_run_scenarios_without_a_pool(monkeypatch, jobs, n_configs):
    # one worker, or one scenario, runs in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = ScenarioConfig(preset_name="quadric-s2-h1", field="Fp:%d" % DEFAULT_PRIME,
                         checks=("expansion-g",), seed=0)
    reports = report.run_scenarios([cfg] * n_configs, jobs)
    assert [report_bytes(r) for r in reports] == [report_bytes(run_scenario(cfg))] * n_configs


def test_cli_verify_jobs_matches_serial(capsys, two_cores):
    argv = ["verify", "--scenario", "quadric-s2-h1", "--scenario", "cubic-3f-h2",
            "--checks", "expansion-g,prop-2-5"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert serial.count('"second-prime": %d' % SECOND_PRIME) == 2


def test_cli_explain(capsys):
    assert main(["explain", "digamma"]) == 0
    out = capsys.readouterr().out
    assert "3.10" in out and "two reduced components of dimension" in out
    assert main(["explain", "prop-2-1"]) == 0
    out = capsys.readouterr().out
    assert "deg S = deg C" in out and "certifies X smooth" in out and "randomized: no" in out
    assert main(["explain", "prop-2-6"]) == 0
    assert "(sigma + delta) : K^inf" in capsys.readouterr().out
    assert main(["explain", "w-covering"]) == 0
    assert "covering map of degree deg(X)" in capsys.readouterr().out
    assert main(["explain", "unknown"]) == 2
    assert "valid names" in capsys.readouterr().err


def test_cli_cache_lifecycle(tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    assert main(["cache", "stats", "--cache", cache_dir]) == 0
    assert "entries: 0" in capsys.readouterr().out
    rc = main(["verify", "--scenario", "quadric-s2-h1",
               "--checks", "omega-consistency", "--cache", cache_dir,
               "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert main(["cache", "stats", "--cache", cache_dir]) == 0
    stats_out = capsys.readouterr().out
    entries = int(stats_out.splitlines()[0].split(":")[1])
    assert entries > 0
    assert main(["cache", "verify", "--cache", cache_dir]) == 0
    assert "ok:" in capsys.readouterr().out
    # CONEKIT_CACHE is the fallback when --cache is absent
    monkeypatch.setenv("CONEKIT_CACHE", cache_dir)
    assert main(["cache", "clear"]) == 0
    assert "removed" in capsys.readouterr().out
    monkeypatch.delenv("CONEKIT_CACHE")
    assert main(["cache", "stats"]) == 2
    assert capsys.readouterr().err.startswith("config error: no cache directory")
    # a path under a file cannot be a directory; this ended in a traceback and exit 1
    (tmp_path / "file").write_text("")
    for action in ("stats", "clear", "verify"):
        assert main(["cache", action, "--cache", str(tmp_path / "file" / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cache-dir ") and err.count("\n") == 1, err


def test_cache_detects_corruption(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache = BasisCache(cache_dir)
    ring = PolyRing(AmbientSpace.product(("x", 2)), PrimeField(DEFAULT_PRIME))
    key = basis_request_key(ring, "grevlex", ["x0^2"])
    cache.put(key, ["x0^2"])
    entry = cache.entries()[0]
    entry.write_text("{broken")
    assert main(["cache", "verify", "--cache", str(cache_dir)]) == 1
    assert "corrupt" in capsys.readouterr().out


# entries that parse as JSON but are not an entry; KEY stands for the entry's own key
MALFORMED_ENTRIES = [
    "[]",                                  # raised AttributeError at entry.get
    '{"key": KEY}',                        # no basis: raised KeyError
    '{"key": KEY, "basis": ["x0^"]}',      # raised RingError
    '{"key": KEY, "basis": ["1/0"]}',      # raised ZeroDivisionError
    '{"key": KEY, "basis": [5]}',          # raised TypeError
]


@pytest.mark.parametrize("malformed", MALFORMED_ENTRIES)
def test_malformed_cache_entry_is_a_miss(tmp_path, capsys, malformed):
    # each used to read INCONCLUSIVE with a traceback and exit 3
    argv = ["verify", "--scenario", "quadric-s2-h1", "--checks", "prop-2-5"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    cache_dir = str(tmp_path / "cache")
    assert main(argv + ["--cache", cache_dir]) == 0
    capsys.readouterr()
    for path in BasisCache(cache_dir).entries():
        key = json.loads(path.read_text())["key"]
        path.write_text(malformed.replace("KEY", json.dumps(key)))
    assert main(["cache", "verify", "--cache", cache_dir]) == 1
    assert "corrupt:" in capsys.readouterr().out
    assert main(argv + ["--cache", cache_dir]) == 0
    out, err = capsys.readouterr()
    assert out == cold
    assert "Traceback" not in err
    # each miss recomputed its basis and rewrote the entry
    assert main(["cache", "verify", "--cache", cache_dir]) == 0
    assert "corrupt:" not in capsys.readouterr().out


def test_cache_reads_entries_named_by_hashlib(tmp_path):
    # entries written when cache.py named them with hashlib.sha256 keep hitting
    ring = PolyRing(AmbientSpace.product(("x", 2)), PrimeField(DEFAULT_PRIME))
    key = basis_request_key(ring, "grevlex", ["x0^2", "x0*x1"])
    name = hashlib.sha256(key.encode()).hexdigest() + ".json"
    (tmp_path / name).write_text(json.dumps({"key": key, "basis": ["x0^2", "x0*x1"]}))
    assert BasisCache(tmp_path).get(key, ring) == [ring.parse("x0^2"), ring.parse("x0*x1")]


def test_cli_gb(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({
        "blocks": [["x", 4]],
        "field": "Fp:31991",
        "gens": ["x1^2 - x0*x2", "x2^2 - x1*x3", "x1*x2 - x0*x3"],
    }))
    assert main(["gb", "--ideal", str(ideal), "--order", "lex"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 3
    assert main(["gb", "--ideal", str(ideal), "--order", "bogus"]) == 2
    assert main(["gb", "--ideal", str(tmp_path / "nope.json"), "--order", "lex"]) == 2


def test_cli_gb_elim_order(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({
        "blocks": [["t", 1], ["v", 2]],
        "affine": ["t", "v"],
        "field": "Q",
        "gens": ["v0 - t0^2", "v1 - t0^3"],
    }))
    assert main(["gb", "--ideal", str(ideal), "--order", "elim:t"]) == 0
    out = capsys.readouterr().out
    assert "v0^3" in out.replace(" ", "") or "v1^2" in out.replace(" ", "")


@pytest.mark.parametrize("ideal,order,message", [
    ({"blocks": [["x", 2]], "field": "Fp:31991", "gens": ["x0^2 + q7"]}, "grevlex",
     "cannot load ideal: unknown variable 'q7'"),
    ({"blocks": [["x", 2]], "field": "Fp:4", "gens": ["x0^2"]}, "grevlex",
     "cannot load ideal: modulus 4 is not prime"),
    ({"blocks": [["x", 2]], "field": "Fp:31991", "gens": ["x0^2"]}, "elim:nosuch",
     "unknown block 'nosuch' in order 'elim:nosuch'"),
    ({"blocks": [["x", 2]], "field": 5, "gens": ["x0^2"]}, "grevlex",
     "cannot load ideal: field must be a string, not 5"),
    ({"blocks": [["x", 2]], "gens": [1]}, "grevlex",
     "cannot load ideal: gens must be a list of polynomial strings, not [1]"),
    ({"blocks": [["x", 2]], "affine": 5, "gens": ["x0"]}, "grevlex",
     "cannot load ideal: affine must be a list of block names, not 5"),
    ({"blocks": [["x", 2]], "gens": "x0"}, "grevlex",
     "cannot load ideal: gens must be a list of polynomial strings, not 'x0'"),
    ({"blocks": [["x", 2]], "affine": ["nosuch"], "gens": ["x0"]}, "grevlex",
     "cannot load ideal: affine names unknown block 'nosuch'"),
    ([["x", 2]], "grevlex", "cannot load ideal: ideal file must hold a JSON object"),
    ({"blocks": [["x", 2]], "field": "Q", "gens": ["1/0*x0"]}, "grevlex",
     "cannot load ideal: zero denominator in coefficient '1/0'"),
    ({"blocks": [["x", 2]], "field": "Fp:31991", "gens": ["x0 + 1/31991*x1"]}, "grevlex",
     "cannot load ideal: zero denominator in coefficient '1/31991'"),
])
def test_cli_gb_bad_input_exit_2(tmp_path, capsys, ideal, order, message):
    # each of these ended in a traceback and exit 1, or was misread
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal))
    assert main(["gb", "--ideal", str(path), "--order", order]) == 2
    assert capsys.readouterr().err == message + "\n"
