"""Random scenario files through `conekit verify`: every run ends in a
documented exit code and none ends in an uncaught traceback.

The scenarios mix valid and invalid presets, cone data, field specs, seeds,
check lists and caps, with caps small enough that the genericity gate and
the checks hit them.  Only cheap checks run: expansion-g, and
omega-consistency on the quadric preset.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conekit.cli import main

CAP_KEYS = ("max-basis", "max-pairs", "max-coeff-bits", "max-reduction-steps")

PRESETS = ["quadric-s2-h1", "cubic-3f-h1", "cubic-3f-h2"]
CONE_DATA = [
    {"n": 2, "h": 1, "f": "x0*x3 - x1*x2"},
    {"n": 2, "h": 1, "f": "x0^2 + x1^2 + x2^2 + x3^2"},
    {"n": 2, "h": 2, "f": "x0^2 + x1^2 + x2^2 + x3^2"},
    {"n": 1, "h": 1, "f": "x0^3 + x1^3 + x2^3"},
]

anything_wrong = st.sampled_from([None, 1.5, True, "3", [], {}])

# per key, values that `from_dict` or the instance itself rejects
BAD = {
    "preset": st.one_of(st.just("no-such-preset"), anything_wrong),
    "cone-data": st.one_of(
        st.fixed_dictionaries({
            "n": st.one_of(st.integers(-1, 3), anything_wrong),
            "h": st.one_of(st.integers(-1, 3), anything_wrong),
            "f": st.one_of(st.sampled_from(["x0^2 + x1", "x0 - x0", "x0^2 +", "q7^2", "",
                                            "1/0*x0^2 + x1^2 + x2^2 + x3^2",
                                            "1/31991*x0^2 + x1^2 + x2^2 + x3^2"]),
                           anything_wrong),
        }),
        st.just({"n": 2, "h": 1, "f": "x0*x3 - x1*x2", "label": "q"}),  # an unknown key
        anything_wrong,
    ),
    "checks": st.one_of(st.just([]), st.just(["no-such-check"]), anything_wrong),
    "field": st.one_of(st.sampled_from(["Fp:4", "Fp:1", "Fp:", "F7", "", "Q:"]), anything_wrong),
    "seed": anything_wrong,
    "caps": st.one_of(
        st.dictionaries(st.sampled_from(CAP_KEYS), st.one_of(st.integers(-2, 0), anything_wrong),
                        min_size=1, max_size=2),
        st.just({"max-basiss": 1}),  # an unknown key
        anything_wrong,
    ),
    "timings": anything_wrong,
    # a key no scenario has (a misspelt seed)
    "sed": st.integers(0, 5),
}


@st.composite
def scenarios(draw):
    """A valid scenario with small caps, then up to two keys given bad values."""
    preset = draw(st.sampled_from(PRESETS + [None]))
    if preset is None:
        d = {"cone-data": draw(st.sampled_from(CONE_DATA))}
    else:
        d = {"preset": preset}
    cheap = ["expansion-g", "omega-consistency"] if preset == "quadric-s2-h1" else ["expansion-g"]
    d["checks"] = draw(st.lists(st.sampled_from(cheap), min_size=1, max_size=2, unique=True))
    d["field"] = draw(st.sampled_from(["Q", "Fp:31991", "Fp:32003", "Fp:2", "Fp:3", "Fp:5"]))
    d["seed"] = draw(st.integers(0, 5))
    d["caps"] = draw(st.dictionaries(st.sampled_from(CAP_KEYS), st.integers(1, 60), max_size=4))
    for key in draw(st.lists(st.sampled_from(sorted(BAD)), max_size=2, unique=True)):
        d[key] = draw(BAD[key])
    return d


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=scenarios())
def test_verify_exits_with_a_documented_code(scenario, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc = main(["verify", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3), scenario
    assert "Traceback" not in err, (scenario, err)
