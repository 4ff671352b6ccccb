"""Command-line interface: run verification scenarios, explain checks,
manage the basis cache, and expose the raw engine."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional, Tuple

from .cache import BasisCache
from .checks import CHECK_ORDER, CHECKS
from .fields import FieldConfig, FieldError
from .groebner import DEFAULT_CAPS, buchberger
from .report import (
    ConfigError,
    ScenarioConfig,
    ScenarioWorkerDied,
    check_types,
    exit_status,
    is_text_list,
    load_scenario,
    report_bytes,
    run_scenarios,
)
from .ring import (
    AmbientSpace,
    BlockElimOrder,
    GrevlexOrder,
    LexOrder,
    Poly,
    PolyRing,
    RingError,
    poly_str,
)


def _default_cache() -> Optional[str]:
    return os.environ.get("CONEKIT_CACHE") or None


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    # compare with None: an explicit 0 must reach ScenarioConfig's positivity check
    caps = {attr: value for attr, value in (("max_basis", args.cap_basis),
                                            ("max_coeff_bits", args.cap_bits))
            if value is not None}
    return dataclasses.replace(
        cfg,
        field=args.field or cfg.field,
        checks=tuple(args.checks.split(",")) if args.checks else cfg.checks,
        seed=args.seed if args.seed is not None else cfg.seed,
        caps=dataclasses.replace(cfg.caps, **caps),
        cache_dir=args.cache or cfg.cache_dir or _default_cache(),
        out_path=args.out or cfg.out_path,
        timings=args.timings or cfg.timings,
    )


def _open_cache(root: str) -> BasisCache:
    """The cache at `root`, creating the directory as a run would; a path
    that cannot be a directory raises ConfigError."""
    try:
        return BasisCache(root)
    except OSError as exc:
        raise ConfigError("cache-dir %r is not a usable directory: %s" % (root, exc))


def _check_paths(configs: List[ScenarioConfig]) -> None:
    """Raise ConfigError for a cache directory or report path that cannot be
    used, or for one report path that two scenarios share (the second
    report would overwrite the first), so that no check runs before the
    run would crash on it or lose a report."""
    outs = set()
    for cfg in configs:
        if cfg.cache_dir:
            _open_cache(cfg.cache_dir)
        if not cfg.out_path:
            continue
        parent = os.path.dirname(os.path.abspath(cfg.out_path))
        if not os.path.isdir(parent):
            raise ConfigError("out %r: directory %r does not exist" % (cfg.out_path, parent))
        if os.path.isdir(cfg.out_path):
            raise ConfigError("out %r is a directory" % cfg.out_path)
        path = os.path.realpath(cfg.out_path)
        if path in outs:
            raise ConfigError("out %r is the report path of two scenarios" % cfg.out_path)
        outs.add(path)


def cmd_verify(args) -> int:
    try:
        configs = [_apply_overrides(load_scenario(s), args) for s in args.scenario]
        _check_paths(configs)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        reports = run_scenarios(configs, args.jobs)
    except ScenarioWorkerDied as exc:
        print("internal error: a scenario worker died: %s" % exc, file=sys.stderr)
        return 3
    for cfg, rep in zip(configs, reports):
        blob = report_bytes(rep)
        if cfg.out_path:
            with open(cfg.out_path, "wb") as fh:
                fh.write(blob)
        else:
            sys.stdout.buffer.write(blob)
        for r in rep["checks"]:
            print(
                "%-18s %-20s %s" % (r["name"], r["status"], rep["instance"]["label"]),
                file=sys.stderr,
            )
    return exit_status(reports)


def cmd_explain(args) -> int:
    name = args.check
    if name not in CHECKS:
        print(
            "unknown check %r; valid names: %s" % (name, ", ".join(CHECK_ORDER)),
            file=sys.stderr,
        )
        return 2
    c = CHECKS[name]
    print(c.name)
    print("  anchor: %s" % c.anchor)
    print("  certifies: %s" % c.summary)
    print("  randomized: %s" % ("yes (two-prime agreement enforced)" if c.randomized else "no"))
    return 0


def cmd_cache(args) -> int:
    root = args.cache or _default_cache()
    try:
        if not root:
            raise ConfigError("no cache directory (use --cache or CONEKIT_CACHE)")
        cache = _open_cache(root)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    if args.action == "stats":
        st = cache.stats()
        print("entries: %d" % st["entries"])
        print("bytes: %d" % st["bytes"])
    elif args.action == "clear":
        n = cache.clear()
        print("removed %d entries" % n)
    elif args.action == "verify":
        rep = cache.verify()
        print("ok: %d" % len(rep["ok"]))
        for key in rep["bad"]:
            print("corrupt: %s" % key)
        if rep["bad"]:
            return 1
    return 0


def _load_ideal_file(data) -> Tuple[PolyRing, List[Poly]]:
    """The ring an ideal file declares, and its generators parsed there."""
    if not isinstance(data, dict):
        raise ConfigError("ideal file must hold a JSON object")
    blocks = data.get("blocks")
    if not (isinstance(blocks, list) and all(
            isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) and type(b[1]) is int
            for b in blocks)):
        raise ConfigError("ideal file needs blocks [[name, size], ...], not %r" % (blocks,))
    check_types(data, (
        ("field", lambda v: isinstance(v, str), "a string"),
        ("affine", is_text_list, "a list of block names"),
        ("gens", is_text_list, "a list of polynomial strings"),
    ))
    affine = data.get("affine", [])
    unknown = [a for a in affine if a not in {name for name, _ in blocks}]
    if unknown:
        raise ConfigError("affine names unknown block %r" % unknown[0])
    field = FieldConfig.parse(data.get("field", "Q")).field()
    ring = PolyRing(AmbientSpace.product(*blocks, affine=affine), field)
    return ring, [ring.parse(t) for t in data["gens"]]


def cmd_gb(args) -> int:
    try:
        with open(args.ideal, "r", encoding="utf-8") as fh:
            ring, gens = _load_ideal_file(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ConfigError, FieldError, RingError) as exc:
        print("cannot load ideal: %s" % exc, file=sys.stderr)
        return 2
    if args.order == "lex":
        order = LexOrder(ring.nvars)
    elif args.order == "grevlex":
        order = GrevlexOrder(ring.nvars)
    elif args.order.startswith("elim:"):
        blocks = args.order[len("elim:"):].split(",")
        names = {b.name for b in ring.ambient.blocks}
        unknown = [b for b in blocks if b not in names]
        if unknown:
            print("unknown block %r in order %r" % (unknown[0], args.order), file=sys.stderr)
            return 2
        order = BlockElimOrder.for_blocks(ring.ambient, blocks)
    else:
        print("unknown order %r (lex | grevlex | elim:block)" % args.order, file=sys.stderr)
        return 2
    basis = buchberger(gens, order, DEFAULT_CAPS)
    for g in basis:
        print(poly_str(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conekit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run verification scenarios")
    v.add_argument("--scenario", action="append", required=True,
                   help="scenario JSON file or preset name (repeatable)")
    v.add_argument("--field", default=None, help="Q or Fp:<prime>")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--cache", default=None, help="basis cache directory")
    v.add_argument("--out", default=None, help="report output path")
    v.add_argument("--jobs", type=int, default=1, help="scenario-level worker pool size")
    v.add_argument("--cap-basis", type=int, default=None)
    v.add_argument("--cap-bits", type=int, default=None)
    v.add_argument("--checks", default=None, help="comma-separated check subset")
    v.add_argument("--timings", action="store_true", help="include wall-times (breaks byte determinism)")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("explain", help="describe a check and its anchor")
    e.add_argument("check")
    e.set_defaults(fn=cmd_explain)

    c = sub.add_parser("cache", help="basis cache maintenance")
    c.add_argument("action", choices=["stats", "clear", "verify"])
    c.add_argument("--cache", default=None)
    c.set_defaults(fn=cmd_cache)

    g = sub.add_parser("gb", help="raw engine: reduced basis of an ideal file")
    g.add_argument("--ideal", required=True, help="JSON ideal file")
    g.add_argument("--order", default="grevlex", help="lex | grevlex | elim:<blocks>")
    g.set_defaults(fn=cmd_gb)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
