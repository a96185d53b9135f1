"""Command-line front door.

Subcommands: enumerate, ltable, growth, rd-profile, kesten, verify.
The five pair subcommands share one runner, ``run_pair_command``: it
makes the pair's store, calls the subcommand's body, and on a cap hit
writes the body's JSON report marked partial.  Each body enumerates what
it reads: enumerate, ltable and kesten the radius-rmax Schreier ball,
rd-profile its padded ball, and growth no ball at all, since its series
comes from the class-level word-length search.
Artifacts are deterministic given (config, seed): ids fix the ordering,
floats are printed with 12 significant digits, and the resolved config
(defaults included) plus the seed are echoed into every JSON report.

``main`` builds its argument parser once per process (``build_parser`` is
cached) and hands the same parser to every later call, so in-process
callers such as the benchmark and the tests pay for it once; parsing never
mutates it.

Exit codes: 0 success / definite verdict; 1 invariant failure in verify;
2 usage error; 3 cap hit or inconclusive verdict (partial artifacts are
still written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from fractions import Fraction

from .cosets import (DEFAULT_MAX_COSETS, DEFAULT_MAX_ORBIT, Caps,
                     CapExceeded, CosetStore)
from .errors import HeckeError, NotRelativelyUnimodular
from .growth import GROWTH_DEFAULTS, classify_growth, growth_series
from .groups import HeckePair, catalog_labels, get_pair, load_pair_spec
from .lengths import characteristic_length, word_length
from .rd import (RD_DEFAULTS, RD_DOMAINS, check_domains, kesten_diagnostic,
                 rd_profile)
from .verify import run_verification

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

CONFIG_DEFAULTS = {
    "caps.max_cosets": DEFAULT_MAX_COSETS,
    "caps.max_orbit": DEFAULT_MAX_ORBIT,
    "seed": 0,
    **GROWTH_DEFAULTS,
    **RD_DEFAULTS,
}

# the config values with a domain: the caps and growth rows, then rd's own
# rows, checked by the one rule (``rd.check_domains``) that library calls of
# rd_profile and kesten_diagnostic also run
CONFIG_DOMAINS = (
    ("caps.max_cosets", ">=", 1),
    ("caps.max_orbit", ">=", 1),
    ("growth.delta", ">=", 0),
    ("growth.tail_fraction", ">", 0),
    ("growth.tail_fraction", "<=", 1),
    *RD_DOMAINS,
)


def _coerce(key: str, raw: str):
    kind = type(CONFIG_DEFAULTS[key])
    try:
        return kind(raw)
    except ValueError:
        raise HeckeError(
            f"config key {key!r} needs {kind.__name__}, got {raw!r}") from None


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Resolved run config: defaults, then the key=value file, then --set
    overrides.  Unknown keys are usage errors."""
    cfg = dict(CONFIG_DEFAULTS)

    def apply(key: str, raw: str, origin: str):
        key = key.strip()
        if key not in cfg:
            raise HeckeError(f"unknown config key {key!r} ({origin})")
        cfg[key] = _coerce(key, raw.strip())

    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise HeckeError(f"bad config line {line!r}")
                key, _, raw = line.partition("=")
                apply(key, raw, path)
    for item in overrides or []:
        if "=" not in item:
            raise HeckeError(f"--set needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        apply(key, raw, "--set")
    return cfg


def _jsonable(obj):
    """The one rule that turns a report into JSON: a dataclass is its
    fields by name, a Fraction its string, every dict key a string (so
    ``sort_keys`` orders them as strings), a tuple a list, and a float
    keeps 12 significant digits, so artifacts are byte-stable."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def write_json(path: str, obj: dict) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".12g") if isinstance(v, float) else v
                         for v in row])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def _slug(label: str) -> str:
    return label.replace(":", "-")


def _resolve_pair(args) -> HeckePair:
    if getattr(args, "pair_spec", None):
        return load_pair_spec(args.pair_spec)
    if not args.pair:
        raise HeckeError("--pair or --pair-spec is required")
    return get_pair(args.pair)


def _caps(cfg: dict) -> Caps:
    return Caps(int(cfg["caps.max_cosets"]), int(cfg["caps.max_orbit"]))


def _report_head(pair: HeckePair, cfg: dict, args) -> dict:
    return {
        "pair": pair.describe(),
        "seed": int(cfg["seed"]),
        "config": cfg,
        "command": args.command,
    }


# ---------------------------------------------------------------------------
# subcommands


def run_pair_command(args, cfg) -> int:
    """Run a pair subcommand: resolve the pair, make its store and hand
    it to the subcommand's body, which enumerates what it reads, writes its
    artifacts under ``<out>/<command>_<pair>`` and returns the exit code.
    A body fills the report only after the work that can hit a cap.  On
    a cap hit the report is written as the body left it, with what the
    subcommand's ``on_cap`` adds from the store, marked partial with the
    cap message, and the cap is re-raised (exit 3)."""
    pair = _resolve_pair(args)
    base = os.path.join(args.out, f"{args.command.replace('-', '_')}_"
                                  f"{_slug(pair.label)}")
    report = _report_head(pair, cfg, args)
    store = CosetStore(pair, _caps(cfg))
    try:
        return args.body(args, cfg, store, base, report)
    except CapExceeded as exc:
        if args.on_cap is not None:
            args.on_cap(store, report)
        report["partial"] = True
        report["cap_exceeded"] = str(exc)
        write_json(base + ".json", report)
        print(f"wrote {base}.json: partial")
        raise


def cmd_enumerate(args, cfg, store, base, report) -> int:
    store.enumerate_to(args.rmax)
    report["snapshot"] = store.snapshot(compute_classes=not args.no_classes)
    write_json(base + ".json", report)
    print(f"wrote {base}.json: {len(store)} cosets, "
          f"{len(store.dcs)} double cosets")
    return EXIT_OK


def cmd_ltable(args, cfg, store, base, report) -> int:
    store.enumerate_to(args.rmax)
    pair = store.pair
    lw = word_length(store)
    try:
        lc = characteristic_length(store)
    except NotRelativelyUnimodular:
        lc = None
    header = ["dc_id", "rep", "L", "R", "delta", "l_word", "l_char"]
    rows, classes = [], []
    for d in store.classes_in_ball(args.rmax):
        row = [d, pair.render(store.reps[store.dcs[d].rep_cid]),
               store.class_L(d), store.class_R(d), store.class_delta(d)]
        l_word = lw.values.get(d)
        l_char = lc.values[d] if lc is not None else None
        classes.append(dict(zip(header, row + [l_word, l_char])))
        # the CSV writes a missing length as "" (l_word) or "NA" (l_char)
        rows.append(row + ["" if l_word is None else l_word,
                           "NA" if l_char is None else l_char])
    write_csv(base + ".csv", header, rows)
    report["classes"] = classes
    report["characteristic_length_available"] = lc is not None
    write_json(base + ".json", report)
    print(f"wrote {base}.csv ({len(rows)} classes)")
    return EXIT_OK


def cmd_growth(args, cfg, store, base, report) -> int:
    series = growth_series(store, args.rmax)
    verdict = classify_growth(series,
                              delta=float(cfg["growth.delta"]),
                              tail_fraction=float(cfg["growth.tail_fraction"]),
                              min_r2=float(cfg["growth.min_r2"]))
    write_csv(base + ".csv", ["r", "ball", "shell"], series.as_rows())
    report["series"] = series
    report["verdict"] = {**asdict(verdict), "label": "empirical"}
    write_json(base + ".json", report)
    print(f"wrote {base}.json: {verdict.kind} "
          f"(alpha={verdict.alpha}, beta={verdict.beta})")
    return EXIT_OK if verdict.kind != "inconclusive" else EXIT_INCONCLUSIVE


def _growth_so_far(store, report) -> None:
    """The series on the radii the class search completed, which are
    exact."""
    report["series"] = growth_series(store, store.class_search_depth)


def cmd_rd_profile(args, cfg, store, base, report) -> int:
    rd_cfg = {k: v for k, v in cfg.items() if k in RD_DEFAULTS}
    profile = rd_profile(store, None, args.rmax, config=rd_cfg,
                         seed=int(cfg["seed"]))
    report["profile"] = profile
    write_json(base + ".json", report)
    write_csv(base + ".csv", ["r", "best_ratio", "witness"],
              [[b.r, b.ratio, b.witness] for b in profile.best])
    print(f"wrote {base}.json: verdict {profile.verdict}")
    if profile.verdict == "inconclusive" or profile.partial:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_kesten(args, cfg, store, base, report) -> int:
    store.enumerate_to(args.rmax)
    rd_cfg = {k: v for k, v in cfg.items() if k in RD_DEFAULTS}
    report_obj = kesten_diagnostic(store, None, None, config=rd_cfg)
    report["kesten"] = report_obj
    write_json(base + ".json", report)
    print(f"wrote {base}.json: index "
          f"{report_obj.amenability_index:.6f} ({report_obj.hint})")
    return EXIT_OK


def cmd_verify(args, cfg) -> int:
    checks = run_verification(include_golden=not args.no_golden)
    n_bad = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        line = f"{status} {c.name}"
        if c.detail and not c.ok:
            line += f": {c.detail}"
        print(line)
        n_bad += 0 if c.ok else 1
    report = {
        "command": "verify",
        "config": cfg,
        "checks": checks,
        "failures": n_bad,
    }
    write_json(os.path.join(args.out, "verify_report.json"), report)
    print(f"{len(checks) - n_bad}/{len(checks)} checks passed")
    return EXIT_OK if n_bad == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke",
        description="Exact coset enumeration, Hecke-algebra arithmetic and "
                    "growth/RD diagnostics for discrete Hecke pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_pair=True):
        if needs_pair:
            p.add_argument("--pair", help="catalog label, e.g. " +
                           ", ".join(catalog_labels()))
            p.add_argument("--pair-spec",
                           help="custom pair spec file (key=value lines)")
        p.add_argument("--rmax", type=int, default=4,
                       help="enumeration radius (default 4)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed recorded in artifacts (default from config)")
        p.add_argument("--max-cosets", type=int, default=None)
        p.add_argument("--max-orbit", type=int, default=None)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--out", default="hecke-out",
                       help="output directory (default hecke-out)")

    def pair_command(name, text, body, on_cap=None):
        p = sub.add_parser(name, help=text)
        common(p)
        p.set_defaults(func=run_pair_command, body=body, on_cap=on_cap)
        return p

    p = pair_command("enumerate", "enumerate a ball and snapshot it",
                     cmd_enumerate)
    p.add_argument("--no-classes", action="store_true",
                   help="skip double-coset computation in the snapshot")
    pair_command("ltable", "per-class L/R/delta/length table", cmd_ltable)
    pair_command("growth", "ball/shell counts and growth verdict",
                 cmd_growth, on_cap=_growth_so_far)
    pair_command("rd-profile", "norm-ratio profile and RD verdict",
                 cmd_rd_profile)
    pair_command("kesten", "amenability index diagnostic", cmd_kesten)

    p = sub.add_parser("verify", help="oracle equivalence, invariants and "
                                      "golden snapshots")
    common(p, needs_pair=False)
    p.add_argument("--no-golden", action="store_true",
                   help="skip golden snapshot comparison")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.rmax < 0:
            raise HeckeError(f"--rmax must be >= 0, got {args.rmax}")
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if getattr(args, "max_cosets", None) is not None:
            cfg["caps.max_cosets"] = args.max_cosets
        if getattr(args, "max_orbit", None) is not None:
            cfg["caps.max_orbit"] = args.max_orbit
        check_domains(cfg, CONFIG_DOMAINS)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args, cfg)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except HeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
