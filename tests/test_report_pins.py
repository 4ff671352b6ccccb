"""Report bytes pinned across commits.

The sha256 of each report of the seven light checks (every check but the
heavy prop-2-1 and prop-2-6) on the three presets at both standard primes
and over Q, seed 0; of the heavy checks; and of the two operator-image
checks, the two heavy checks and the other five light checks on the
scenario corpus in tests/corpus.  A change that is meant to keep reports
byte-identical must keep these hashes; one that changes a report on
purpose records new ones.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conekit.checks import CHECK_ORDER
from conekit.fields import DEFAULT_PRIME, SECOND_PRIME
from conekit.report import ScenarioConfig, report_bytes, run_scenario

LIGHT_CHECKS = tuple(c for c in CHECK_ORDER if c not in ("prop-2-1", "prop-2-6"))

PINNED = {
    ("cubic-3f-h1", DEFAULT_PRIME): "53cea1754bb3ed9f8c1674dea740ebb42828c785a4d33deddc238e4ec9efa434",
    ("cubic-3f-h1", SECOND_PRIME): "937502b0feaccfe72bca418bfcab9712ba8b50d231ca6f5d421145419a5c5efa",
    ("cubic-3f-h2", DEFAULT_PRIME): "4d26556166ea8961c6ff6f37abebfab92fae6fc41ef0afb01c04860b59346a58",
    ("cubic-3f-h2", SECOND_PRIME): "e46811bacb174c61af045da119f6df0b642db86a9309a679b3d6bd6819850aa0",
    ("quadric-s2-h1", DEFAULT_PRIME): "1867853e10388acae85a7a22517d6baec21c2c20a345c5c6d2acfdbfff464958",
    ("quadric-s2-h1", SECOND_PRIME): "0062e71b20dc468bdce1fedab939247a1db71f44162c456f8a8728ea27c0be46",
}


# the same seven checks over Q, where coefficients are Fractions; the four
# point-sampling checks read NOT-APPLICABLE there, and omega-consistency,
# expansion-g and digamma compute
PINNED_Q = {
    "cubic-3f-h1": "d71ffa8b070f24f8b3858556f7c4aa9ad3a6fd8f61d3cb2298949cb0085cae92",
    "cubic-3f-h2": "3612ad2b87f36952045bf7d79a6b6278da6dcf0e7bfaa3f93a02b71873dd8d5b",
    "quadric-s2-h1": "1116d351762b92423078e9ce4e68bec466ca5fa4d7a3659bf965e4ed231c79a8",
}


@pytest.mark.parametrize("preset,prime", sorted(PINNED))
def test_light_report_bytes_pinned(preset, prime):
    cfg = ScenarioConfig(preset_name=preset, field="Fp:%d" % prime, checks=LIGHT_CHECKS, seed=0)
    digest = hashlib.sha256(report_bytes(run_scenario(cfg))).hexdigest()
    assert digest == PINNED[(preset, prime)]


@pytest.mark.parametrize("preset", sorted(PINNED_Q))
def test_light_report_bytes_pinned_over_rationals(preset):
    cfg = ScenarioConfig(preset_name=preset, field="Q", checks=LIGHT_CHECKS, seed=0)
    digest = hashlib.sha256(report_bytes(run_scenario(cfg))).hexdigest()
    assert digest == PINNED_Q[preset]


# the heavy checks prop-2-1 and prop-2-6 at both standard primes, seed 0:
# they cut sigma at t = 1 (prop-2-1's degree certificate) and run
# cone_family_end, which the light checks do not (under 1 s each on
# quadric-s2-h1)
PINNED_HEAVY = {
    DEFAULT_PRIME: "abf3da11b9f89353ca57889b95c0b7546627f40f5a2f304172b75798bf0c1ba8",
    SECOND_PRIME: "4884cea01da3dc87ae7e9b3d0806367c3b6ff43e284b1f0261c2ea25e9d1cb9f",
}

PINNED_HEAVY_CUBIC = {
    ("cubic-3f-h1", DEFAULT_PRIME): "52efd8fbaec31d4083f9da05dc50924ae7bba1ed647f02c399b045797678e7ed",
    ("cubic-3f-h1", SECOND_PRIME): "3ca89535f58a9c25ffd1cd6696735642b57d9a09f6f34fdfb047c08dd829b48b",
    ("cubic-3f-h2", DEFAULT_PRIME): "a08d305ee60488ac1dfcfc8e16fca4f565c513ab363ec180b4e5b735091aa64f",
    ("cubic-3f-h2", SECOND_PRIME): "411b10490f65ff86c866067d50f7ea8acb8fbdd161559b0bcb62fd8314d6af40",
}


def heavy_report(preset, prime):
    cfg = ScenarioConfig(preset_name=preset, field="Fp:%d" % prime,
                         checks=("prop-2-1", "prop-2-6"), seed=0)
    return run_scenario(cfg)


@pytest.mark.slow
@pytest.mark.parametrize("prime", sorted(PINNED_HEAVY))
def test_heavy_quadric_report_bytes_pinned(prime):
    digest = hashlib.sha256(report_bytes(heavy_report("quadric-s2-h1", prime))).hexdigest()
    assert digest == PINNED_HEAVY[prime]


@pytest.mark.slow
@pytest.mark.parametrize("preset,prime", sorted(PINNED_HEAVY_CUBIC))
def test_heavy_cubic_report_bytes_pinned(preset, prime):
    # both checks stopped at the reduction-step cap (INCONCLUSIVE) while they
    # went through theta
    rep = heavy_report(preset, prime)
    assert [c["status"] for c in rep["checks"]] == ["PASS", "PASS"]
    assert hashlib.sha256(report_bytes(rep)).hexdigest() == PINNED_HEAVY_CUBIC[(preset, prime)]


# example-3-2 and formula-3-5 on the scenarios of tests/corpus, off the
# presets, at both standard primes, seed 0.  Recorded before the join became
# a span and formula-3-5 stopped saturating its cut, which kept every byte.
CORPUS = Path(__file__).parent / "corpus"

PINNED_CORPUS = {
    ("cubic-3f-nondiagonal-h1", DEFAULT_PRIME): "ad7a451e4c2c86592e2d544b08c68df7e8c9d574a87fd6851400697dc6e7fbc7",
    ("cubic-3f-nondiagonal-h1", SECOND_PRIME): "1849b33b75be8f31a9c78bad9349a8c073ff0a46fceb451d0d89cb5de290d99d",
    ("cubic-4f-h1", DEFAULT_PRIME): "540319f4923c1e5109de89b6d5a35b8efbfab03ad0a3b0dd21dc65c4debe4a42",
    ("cubic-4f-h1", SECOND_PRIME): "f0f146c549f1bd53558b0d634bfc3415f07536e44fafb5923e90c55ac4d61744",
    ("cubic-4f-h2", DEFAULT_PRIME): "cac3d304819979e6874070875da7f8adcd95275a90d5e1cab7e10854fc91abe8",
    ("cubic-4f-h2", SECOND_PRIME): "58b9d997f36aa023d8c411aa1e33358640bd08bbbdf417d8811bf3c4f419bbf9",
    ("quadric-s2-generic-h1", DEFAULT_PRIME): "968d5f10e3d93df425bdd8cbdc79b4d36c4a4569a72dfc8b68884aac776588ed",
    ("quadric-s2-generic-h1", SECOND_PRIME): "f9c448e4d2e3ef63f17125afea2cfeb54098f1d1abb29ea2b36222db4caf11f3",
    ("quartic-3f-h1", DEFAULT_PRIME): "00b1f921df652d5f096046d9443b4ddb607f8c52bb2972d4c9d0a54f466d1e0e",
    ("quartic-3f-h1", SECOND_PRIME): "c72a360aa38e8fe8787bb04a3bebbcf171b3a56d5f33c6e5bd7d5a202abc7737",
    ("quartic-s2-h1", DEFAULT_PRIME): "a7cfde05ea1e53104730d795a5fcc8d4ae57a5e306b9ed5f7c63e9cfd7faa584",
    ("quartic-s2-h1", SECOND_PRIME): "8e5e949119962d6e35c95751ef22e4cc0eabc640eeabe7c1df3039f1d87933ae",
}


# prop-2-1 and prop-2-6 on the same scenarios, primes and seed.  Recorded
# before prop-2-1 dropped the block saturations that cannot change what it
# reads and prop-2-6 saturated its end fibre in z only, which kept every byte.
PINNED_CORPUS_HEAVY = {
    ("cubic-3f-nondiagonal-h1", DEFAULT_PRIME): "73214958cdcf285f753431e1d4867384a7abd6681588c5bbab9a69f214f95e36",
    ("cubic-3f-nondiagonal-h1", SECOND_PRIME): "4ee572bde330bfc6bdda78d5fe7b3e9bb7af9fb2a0b188eeffd8599998470a22",
    ("cubic-4f-h1", DEFAULT_PRIME): "f71bd301651d6870d30b5b20a1544c0bdde9f1dfe8040b7e7794b8b424cea702",
    ("cubic-4f-h1", SECOND_PRIME): "6af4d8ab8b49e014be5185b3c2a6fa3f42b0964dc2a43b0b6b15a37d405f6423",
    ("cubic-4f-h2", DEFAULT_PRIME): "8c025c047c2eadebcd97f3c4514d71c259294fc50540102622f7dc8114881b75",
    ("cubic-4f-h2", SECOND_PRIME): "613be101046aea6cca5f74eb5a5604b796e8c008c272e29939be468732e97c26",
    ("quadric-s2-generic-h1", DEFAULT_PRIME): "fba279b359e4e86c18e2a2b08d62b23d63b3db5968cbed310ee3b625b320be92",
    ("quadric-s2-generic-h1", SECOND_PRIME): "1204b6d293163fc04206b2c53afa23950848217d2cd84c9222d3d13db0021a8a",
    ("quartic-3f-h1", DEFAULT_PRIME): "5161ca375e432ceed3551b4eb9e4e9556d050439e8aaf710d74aad78b8f869a2",
    ("quartic-3f-h1", SECOND_PRIME): "499c8fc9f2c28438a0125a750365512b35770b66561f8dcf63dafd4854bd013f",
    ("quartic-s2-h1", DEFAULT_PRIME): "89b42bd3fcc31edb8e57abb5a10cf5c1d12a56a012733c3820f16ce533477597",
    ("quartic-s2-h1", SECOND_PRIME): "2956d115f980d0325a3ce46731f0d5a0958e030f11b489288c4791e374ce58d5",
}


# the five light checks that do not push a cycle through the operator
# correspondence, on the same scenarios, primes and seed.  Recorded before
# omega-consistency and digamma were decided by one ideal equality each and
# w-covering read its fibres from the bare minors with f, which kept every
# byte.
CORPUS_LIGHT_CHECKS = ["omega-consistency", "expansion-g", "w-covering", "prop-2-5", "digamma"]

PINNED_CORPUS_LIGHT = {
    ("cubic-3f-nondiagonal-h1", DEFAULT_PRIME): "1fe3b53644d81bb4c07fba7a9d589ebe00c1b0759aae15d19869da40f5bb4e41",
    ("cubic-3f-nondiagonal-h1", SECOND_PRIME): "025e9e16879ab8fc88d38b5ec607ffa6553a20cc17e2348832c5bb595ae7205b",
    ("cubic-4f-h1", DEFAULT_PRIME): "1316a62e9ce6db0d00484d2000a555fbbfb1a4844692c92e6995bdee27b1caac",
    ("cubic-4f-h1", SECOND_PRIME): "30eb5a5e33cc22933460d8413d962bb6e446dbdf1510e18c7e204e2c70e7ab30",
    ("cubic-4f-h2", DEFAULT_PRIME): "6698b4f7733d2b837b0820c052df054c7b33f8d98d97831e5ee54abcabd9b7f8",
    ("cubic-4f-h2", SECOND_PRIME): "e2a1bbd4a29df8faac475147245e4563080b61b8ce517b8c52f129dba66f2c9c",
    ("quadric-s2-generic-h1", DEFAULT_PRIME): "ac2033db060c0602178a9e0e3fffd08acb0c42aba57634b77e4cbaad8122f008",
    ("quadric-s2-generic-h1", SECOND_PRIME): "f01da99228d772cf45759c2c1eeafafe07b0716c0b2cf1ce1e5c2edb37e3cb35",
    ("quartic-3f-h1", DEFAULT_PRIME): "4da1318c76e86cf775bf7f092e83ca4efe9b1c03d13a89826357de7901ba1243",
    ("quartic-3f-h1", SECOND_PRIME): "ff6bfbe670963d14fda07ad7a633aca4ae272a98b0e64177f70d6b648e4df638",
    ("quartic-s2-h1", DEFAULT_PRIME): "745ce91f7d30f11916e7eeb4bf358a276006c4cdb957570bb07fbf0d1c1b7308",
    ("quartic-s2-h1", SECOND_PRIME): "ad3bb37237f98b1bdf0ca01c1a772dd2b0fb88d55384abfa499622c2203b7ccb",
}


def test_corpus_is_pinned():
    names = sorted(p.stem for p in CORPUS.glob("*.json"))
    for pins in (PINNED_CORPUS, PINNED_CORPUS_HEAVY, PINNED_CORPUS_LIGHT):
        assert names == sorted({n for n, _ in pins})


def corpus_digest(name, prime, checks):
    scenario = json.loads((CORPUS / (name + ".json")).read_text())
    cfg = ScenarioConfig.from_dict(dict(scenario, field="Fp:%d" % prime, checks=checks, seed=0))
    return hashlib.sha256(report_bytes(run_scenario(cfg))).hexdigest()


@pytest.mark.parametrize("name,prime", sorted(PINNED_CORPUS))
def test_corpus_report_bytes_pinned(name, prime):
    assert corpus_digest(name, prime, ["example-3-2", "formula-3-5"]) == PINNED_CORPUS[(name, prime)]


@pytest.mark.slow
@pytest.mark.parametrize("name,prime", sorted(PINNED_CORPUS_HEAVY))
def test_corpus_heavy_report_bytes_pinned(name, prime):
    assert corpus_digest(name, prime, ["prop-2-1", "prop-2-6"]) == PINNED_CORPUS_HEAVY[(name, prime)]


@pytest.mark.parametrize("name,prime", sorted(PINNED_CORPUS_LIGHT))
def test_corpus_light_report_bytes_pinned(name, prime):
    assert corpus_digest(name, prime, CORPUS_LIGHT_CHECKS) == PINNED_CORPUS_LIGHT[(name, prime)]
