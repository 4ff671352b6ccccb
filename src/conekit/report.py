"""Scenario configuration and machine-readable verification reports.

Reports are JSON, UTF-8, keys sorted; given an identical configuration
and seed the emitted bytes are identical.  Wall-clock timings are
therefore opt-in and excluded by default.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import __version__
from .cache import BasisCache
from .checks import (
    CHECK_ORDER,
    CHECKS,
    FAIL,
    INCONCLUSIVE,
    INTERNAL_ERROR,
    CheckOutcome,
    certify_gate,
    merge_two_prime,
    needs_second_prime,
    run_check,
    run_second_prime,
    second_prime_data,
)
from .cone import ConeData, ConeDataError, PRESETS, preset
from .fields import FieldConfig, FieldError
from .groebner import DEFAULT_CAPS, ResourceCaps
from .ideals import EngineContext


class ConfigError(Exception):
    pass


class ScenarioWorkerDied(Exception):
    """A run_scenarios pool worker died before it answered its scenario."""


def is_text_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def check_types(d: dict, rules) -> None:
    """Raise ConfigError for the first (key, ok, what) rule whose key is in
    the JSON object d with a value that `ok` rejects."""
    for key, ok, what in rules:
        if key in d and not ok(d[key]):
            raise ConfigError("%s must be %s, not %r" % (key, what, d[key]))


# each resource cap: its key in a scenario's "caps" object, its ResourceCaps field
CAP_KEYS = (
    ("max-basis", "max_basis"),
    ("max-pairs", "max_pairs"),
    ("max-coeff-bits", "max_coeff_bits"),
    ("max-reduction-steps", "max_reduction_steps"),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One verification scenario: instance, field, checks, caps, seed."""

    preset_name: Optional[str] = None
    cone_literal: Optional[Tuple[int, int, str]] = None  # (n, h, f-text)
    field: str = "Fp:31991"
    checks: Tuple[str, ...] = tuple(CHECK_ORDER)
    seed: int = 0
    caps: ResourceCaps = DEFAULT_CAPS
    cache_dir: Optional[str] = None
    out_path: Optional[str] = None
    timings: bool = False

    def __post_init__(self):
        if not self.checks:
            raise ConfigError("checks must be nonempty")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ConfigError("unknown checks: %s" % ", ".join(unknown))
        if (self.preset_name is None) == (self.cone_literal is None):
            raise ConfigError("exactly one of preset / cone-data must be given")
        if self.preset_name is not None and self.preset_name not in PRESETS:
            raise ConfigError(
                "unknown preset %r (have: %s)" % (self.preset_name, ", ".join(sorted(PRESETS)))
            )
        if min(getattr(self.caps, attr) for _, attr in CAP_KEYS) <= 0:
            raise ConfigError("resource caps must be positive")
        try:
            self.cone_data()
        except (ConeDataError, FieldError) as exc:
            raise ConfigError(str(exc))

    def cone_data(self) -> ConeData:
        cfg = FieldConfig.parse(self.field)
        cfg = FieldConfig(kind=cfg.kind, p=cfg.p, seed=self.seed)
        if self.preset_name is not None:
            return preset(self.preset_name, cfg)
        n, h, f_text = self.cone_literal
        return ConeData(n=n, h=h, f_text=f_text, field_cfg=cfg, label="custom")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise ConfigError("scenario config must be a JSON object")
        caps_d = d.get("caps", {})
        if not isinstance(caps_d, dict):
            raise ConfigError("caps must be a JSON object")
        caps = {}
        for key, attr in CAP_KEYS:
            value = caps_d.get(key, getattr(DEFAULT_CAPS, attr))
            if type(value) is not int:
                raise ConfigError("cap %r must be an integer, not %r" % (key, value))
            caps[attr] = value
        lit = None
        if "cone-data" in d:
            cdd = d["cone-data"]
            if not (isinstance(cdd, dict) and type(cdd.get("n")) is int
                    and type(cdd.get("h")) is int and isinstance(cdd.get("f"), str)):
                raise ConfigError("cone-data needs integer n, h and text f, not %r" % (cdd,))
            lit = (cdd["n"], cdd["h"], cdd["f"])
        check_types(d, (
            ("preset", lambda v: v is None or isinstance(v, str), "a preset name"),
            ("seed", lambda v: type(v) is int, "an integer"),
            ("field", lambda v: isinstance(v, str), "a string"),
            ("checks", is_text_list, "a list of check names"),
            ("cache-dir", lambda v: v is None or isinstance(v, str), "a path string"),
            ("out", lambda v: v is None or isinstance(v, str), "a path string"),
            ("timings", lambda v: type(v) is bool, "true or false"),
        ))
        return cls(
            preset_name=d.get("preset"),
            cone_literal=lit,
            field=d.get("field", "Fp:31991"),
            checks=tuple(d.get("checks", CHECK_ORDER)),
            seed=d.get("seed", 0),
            caps=ResourceCaps(**caps),
            cache_dir=d.get("cache-dir"),
            out_path=d.get("out"),
            timings=d.get("timings", False),
        )

    def to_dict(self) -> dict:
        d = {
            "field": self.field,
            "checks": list(self.checks),
            "seed": self.seed,
            "caps": {key: getattr(self.caps, attr) for key, attr in CAP_KEYS},
        }
        if self.preset_name is not None:
            d["preset"] = self.preset_name
        else:
            n, h, f = self.cone_literal
            d["cone-data"] = {"n": n, "h": h, "f": f}
        return d


def load_scenario(path_or_preset: str) -> ScenarioConfig:
    """A scenario from a JSON file path, or a bare preset name."""
    if path_or_preset in PRESETS:
        return ScenarioConfig(preset_name=path_or_preset)
    try:
        with open(path_or_preset, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read scenario %r: %s" % (path_or_preset, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("scenario %r is not valid JSON: %s" % (path_or_preset, exc))
    return ScenarioConfig.from_dict(data)


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# False in a run_scenarios pool worker, whose pool already has a worker per core
_FORK_SECOND_PRIME = True


def _pool_worker_init() -> None:
    """Run each second prime in-process in this pool worker."""
    global _FORK_SECOND_PRIME
    _FORK_SECOND_PRIME = False


class _SecondPrimeRun:
    """The second-prime re-runs of a scenario's randomized checks.

    They run in a forked child, concurrently with the parent's first-prime
    checks, and come back pickled through a pipe.  Where os.fork is
    missing or fails, the process has more than one thread, it may run on
    one core only, or it is a run_scenarios pool worker, they run
    in-process when `outcomes` is called.  A child that raises, exits
    without a result or dies by a signal gives every check an INCONCLUSIVE
    outcome with an `internal-error` witness.  `close` kills and reaps a
    child whose outcomes were not read.
    """

    def __init__(self, names: List[str], cd: ConeData, ctx: EngineContext):
        import threading

        self.args = (names, *second_prime_data(cd, ctx))
        self.pid = self.fd = None
        # the child would hold only the forking thread, and any lock that
        # another thread held at the fork would stay held there; on one
        # core it would only take turns with the parent
        if (_FORK_SECOND_PRIME and hasattr(os, "fork") and threading.active_count() == 1
                and _cores() > 1):
            # else text buffered before the fork would be written twice
            sys.stdout.flush()
            sys.stderr.flush()
            self.fd, w = os.pipe()
            try:
                self.pid = os.fork()
            except OSError:  # no process to be had: run in-process
                os.close(self.fd)
                self.fd = None
            if self.pid == 0:
                os.close(self.fd)
                self._child(w)
            os.close(w)

    def _child(self, w: int) -> None:
        code = 1
        try:
            import pickle
            import signal

            # Ctrl-C reaches the whole process group; the parent handles it
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            data = pickle.dumps(run_second_prime(*self.args))
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:  # the child exits here, never into the parent's frames
            import traceback

            print("internal error in the second-prime process:", file=sys.stderr)
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)

    def outcomes(self) -> Dict[str, CheckOutcome]:
        if self.pid is None:
            return run_second_prime(*self.args)
        # read to the end before waiting, so a large result cannot block the child
        with os.fdopen(self.fd, "rb") as fh:
            self.fd = None
            data = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code == 0 and data:
            import pickle

            return pickle.loads(data)
        if code < 0:
            fault = "second-prime process killed by signal %d" % -code
        elif code > 0:
            fault = "second-prime process exited with status %d" % code
        else:
            fault = "second-prime process exited with status 0 and no result"
        return {name: CheckOutcome(INCONCLUSIVE, witnesses={INTERNAL_ERROR: fault})
                for name in self.args[0]}

    def close(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)  # a child that has exited can still be signalled
            os.waitpid(self.pid, 0)
            self.pid = None


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute the gated check pipeline and assemble the report dict.

    The randomized checks' second-prime re-runs go to a _SecondPrimeRun,
    started before the first prime's genericity gate."""
    cd = cfg.cone_data()
    cache = BasisCache(cfg.cache_dir) if cfg.cache_dir else None
    ctx = EngineContext(caps=cfg.caps, cache=cache, seed=cfg.seed)
    names = [n for n in dict.fromkeys(cfg.checks) if needs_second_prime(n, cd)]
    second_run = _SecondPrimeRun(names, cd, ctx) if names else None
    try:
        genericity = certify_gate(cd, ctx)
        gate_failed = isinstance(genericity, CheckOutcome)
        firsts: List[CheckOutcome] = []
        records: List[dict] = []
        for name in cfg.checks:
            start = time.monotonic()
            firsts.append(genericity if gate_failed else run_check(name, cd, ctx, genericity))
            rec = {"name": name, "paper-anchor": CHECKS[name].anchor}
            if cfg.timings:
                rec["wall-time"] = round(time.monotonic() - start, 3)
            records.append(rec)
        seconds = second_run.outcomes() if second_run and not gate_failed else {}
    finally:
        if second_run:
            second_run.close()
    for rec, first in zip(records, firsts):
        outcome = merge_two_prime(rec["name"], cd, first, seconds.get(rec["name"]))
        rec.update(status=outcome.status, witnesses=outcome.witnesses, notes=list(outcome.notes))
    statuses = [r["status"] for r in records]
    report = {
        "artifact": {"name": "conekit", "version": __version__},
        "scenario": cfg.to_dict(),
        "instance": {
            "label": cd.label,
            "n": cd.n,
            "h": cd.h,
            "f": cd.f_text,
            "field": cd.field_cfg.spec,
        },
        "genericity": _genericity_record(genericity),
        "checks": records,
        "summary": {s: statuses.count(s) for s in sorted(set(statuses))},
    }
    return report


def run_scenarios(configs: List[ScenarioConfig], jobs: int) -> List[dict]:
    """run_scenario over every config, in order; a pool of up to `jobs`
    workers when there is more than one worker and more than one config.
    A pool worker runs its second primes in-process: a forked child would
    only take turns with the other workers for the cores.

    A pool worker that dies (say, to the OOM killer) makes the pool raise
    concurrent.futures.process.BrokenProcessPool rather than leave its task
    unanswered; it is raised here as ScenarioWorkerDied, with the same
    message.  The pool machinery (multiprocessing, pickle, socket and
    more) is imported only on this path, so a serial run never loads it."""
    if jobs > 1 and len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(min(jobs, len(configs)),
                                     initializer=_pool_worker_init) as pool:
                return list(pool.map(run_scenario, configs))
        except BrokenProcessPool as exc:
            raise ScenarioWorkerDied(str(exc)) from exc
    return [run_scenario(c) for c in configs]


def _genericity_record(genericity) -> dict:
    if isinstance(genericity, CheckOutcome):
        return {"status": genericity.status, "witnesses": genericity.witnesses}
    return {
        "hypersurface-smooth": genericity.hypersurface_smooth,
        "section-h-smooth": genericity.section_h_smooth,
        "section-rest-smooth": genericity.section_rest_smooth,
        "first-order-nonzero": genericity.pencil.nonzero,
        "first-order-parameter-dependent": genericity.pencil.z_dependent,
        "rejected": genericity.rejected,
        "notes": list(genericity.notes),
    }


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def report_has_fail(report: dict) -> bool:
    return any(r["status"] == FAIL for r in report["checks"])


def exit_status(reports: List[dict]) -> int:
    """The exit status of a run: 1 if a check reads FAIL, else 3 if a check
    raised (an `internal-error` witness), else 0.  A FAIL verdict is
    reported first."""
    if any(report_has_fail(rep) for rep in reports):
        return 1
    raised = any(INTERNAL_ERROR in r["witnesses"] for rep in reports for r in rep["checks"])
    return 3 if raised else 0
