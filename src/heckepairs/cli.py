"""Command-line front door.

Subcommands: enumerate, ltable, growth, rd-profile, kesten, verify.
The five pair subcommands share one runner, ``run_pair_command``: it
resolves the run config (no other command reads one), makes the pair's
store, calls the subcommand's body, and on a cap hit writes the body's
JSON report marked partial.  verify takes only ``--out`` and
``--no-golden`` and echoes the default config.  Each body enumerates the
Schreier ball it reads: enumerate to rmax, kesten to min(rmax,
kesten.trunc_radius) (its default f enumerates radius 1, so --rmax 0
truncates at 1), rd-profile to rmax + rd.pad, ltable and growth none;
classes and word lengths come from the class-level search, to rmax.
Each settable value is declared once, with its default and its domain,
in ``CONFIG_KEYS``, whose rd.* and kesten.* rows are ``config.RD_KEYS``;
``config.set_values`` sets each value of the file, ``--set`` and the flags,
and ``config.check_domains`` refuses a resolved config before anything runs.
Each body imports the modules it runs (growth, lengths, rd or verify) when
called, so importing this module loads only the store, pairs and config.
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
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from .config import MAX_RADIUS, RD_KEYS, check_domains, set_values
from .cosets import (DEFAULT_MAX_COSETS, DEFAULT_MAX_ORBIT, Caps,
                     CapExceeded, CosetStore)
from .errors import HeckeError, NotRelativelyUnimodular
from .groups import catalog_labels, get_pair, load_pair_spec, read_key_values

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# the one config table, rows as in ``config.RD_KEYS``: caps, seed, then rd's
CONFIG_KEYS = {
    "caps.max_cosets": (DEFAULT_MAX_COSETS, (">=", 1)),
    "caps.max_orbit": (DEFAULT_MAX_ORBIT, (">=", 1)),
    "seed": (0,),
    **RD_KEYS,
}
CONFIG_DEFAULTS = {key: row[0] for key, row in CONFIG_KEYS.items()}


def _key_value(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise HeckeError(f"--set needs key=value, got {item!r}")
    key, _, raw = item.partition("=")
    return key.strip(), raw.strip()


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Resolved run config: defaults, then the key=value file, then --set
    overrides, each value set by ``config.set_values``.  Unknown keys are
    usage errors."""
    cfg = dict(CONFIG_DEFAULTS)
    if path:
        set_values(cfg, CONFIG_KEYS, read_key_values(path, "config"), path)
    set_values(cfg, CONFIG_KEYS, map(_key_value, overrides or []), "--set")
    return cfg


def _encode(obj, out: list, pad: str) -> None:
    """Append the JSON text of ``obj``, its lines indented by ``pad``, to
    ``out``: the one rule for every report.  Keys become strings, sorted; a
    dataclass is its fields by name, a Fraction its string, a tuple a list,
    and a float keeps 12 significant digits, so artifacts are byte-stable."""
    if isinstance(obj, float):
        x = float(format(obj, ".12g"))
        out.append(float.__repr__(x) if x - x == 0 else   # x is finite
                   "NaN" if x != x else "Infinity" if x > 0 else "-Infinity")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner, sep = pad + " ", "{"
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            out += (sep, inner, _quote(key), ": ")
            _encode(value, out, inner)
            sep = ","
        out.append(pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = pad + " ", "["
        for value in obj:
            out += (sep, inner)
            _encode(value, out, inner)
            sep = ","
        out.append(pad + "]" if obj else "[]")
    elif isinstance(obj, Fraction):
        out.append(_quote(str(obj)))
    elif is_dataclass(obj):
        _encode({f.name: getattr(obj, f.name) for f in fields(obj)}, out, pad)
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(path: str, text: str) -> None:
    """Write one artifact, making its directory first, or raise HeckeError."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise HeckeError(f"cannot write {path}: {exc.strerror}") from None


def _check_out(out: str) -> None:
    """Refuse, before any work, an out directory that cannot be made or
    written: its nearest existing ancestor (itself, if it exists) must be
    a writable directory.  Creates nothing."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        why = "is not a directory"
    elif not os.access(path, os.W_OK | os.X_OK):
        why = "is not writable"
    else:
        return
    raise HeckeError(f"cannot write {os.path.join(out, '')}: {path} {why}")


def write_json(path: str, obj: dict) -> None:
    out: list = []
    _encode(obj, out, "\n")
    _write(path, "".join(out) + "\n")


def write_csv(path: str, header: list[str], rows: Iterable) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".12g") if isinstance(v, float) else v
                         for v in row])
    _write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands


def run_pair_command(args) -> int:
    """Run a pair subcommand: resolve its config and pair, then make the
    pair's store and hand it, with the config and the config's rd slice,
    to the subcommand's body, which enumerates what it reads, writes its
    artifacts under ``<out>/<command>_<pair>`` and returns the exit code.
    An out directory that cannot be made is refused before the store is,
    and the directory is made with the first artifact, so bad input, or a
    pair the body refuses, writes nothing.  A body fills the report only
    after the work that can hit a cap.  On a cap hit the report is written
    as the body left it, marked partial with the cap message, and the cap
    is re-raised (exit 3)."""
    if not 0 <= args.rmax <= MAX_RADIUS:
        raise HeckeError(f"--rmax must be >= 0 and <= {MAX_RADIUS}, "
                         f"got {args.rmax}")
    cfg = load_config(args.config, args.set)
    flags = (("seed", args.seed), ("caps.max_cosets", args.max_cosets),
             ("caps.max_orbit", args.max_orbit))
    set_values(cfg, CONFIG_KEYS, [(k, v) for k, v in flags if v is not None],
               "flag")
    check_domains(cfg, CONFIG_KEYS)
    if (args.pair is None) == (args.pair_spec is None):
        raise HeckeError("give exactly one of --pair and --pair-spec")
    pair = (get_pair(args.pair) if args.pair_spec is None
            else load_pair_spec(args.pair_spec))
    rd_cfg = {k: cfg[k] for k in RD_KEYS}
    _check_out(args.out)
    base = os.path.join(args.out, f"{args.command.replace('-', '_')}_"
                                  f"{pair.label.replace(':', '-')}")
    report = {"pair": pair.describe(), "seed": cfg["seed"],
              "config": cfg, "command": args.command}
    store = CosetStore(pair, Caps(cfg["caps.max_cosets"],
                                  cfg["caps.max_orbit"]))
    try:
        return args.body(args, cfg, rd_cfg, store, base, report)
    except CapExceeded as exc:
        report["partial"] = True
        report["cap_exceeded"] = str(exc)
        write_json(base + ".json", report)
        print(f"wrote {base}.json: partial")
        raise


def cmd_enumerate(args, cfg, rd_cfg, store, base, report) -> int:
    store.enumerate_to(args.rmax)
    report["snapshot"] = store.snapshot(compute_classes=not args.no_classes)
    write_json(base + ".json", report)
    print(f"wrote {base}.json: {len(store)} cosets, "
          f"{len(store.dcs)} double cosets")
    return EXIT_OK


def cmd_ltable(args, cfg, rd_cfg, store, base, report) -> int:
    from .lengths import characteristic_length, word_length
    pair = store.pair
    lw = word_length(store, args.rmax)
    try:
        lc = characteristic_length(store, args.rmax)
    except NotRelativelyUnimodular:
        lc = None
    header = ["dc_id", "rep", "L", "R", "delta", "l_word", "l_char"]
    rows, classes = [], []
    for d in sorted(lw.values):
        row = [d, pair.render(store.reps[store.dcs[d].rep_cid]),
               store.class_L(d), store.class_R(d), store.class_delta(d)]
        l_word = lw(d)
        l_char = lc(d) if lc is not None else None
        classes.append(dict(zip(header, row + [l_word, l_char])))
        rows.append(row + [l_word, "NA" if l_char is None else l_char])
    write_csv(base + ".csv", header, rows)
    report["classes"] = classes
    report["characteristic_length_available"] = lc is not None
    write_json(base + ".json", report)
    print(f"wrote {base}.csv ({len(rows)} classes)")
    return EXIT_OK


def cmd_growth(args, cfg, rd_cfg, store, base, report) -> int:
    from .growth import classify_growth, growth_series
    try:
        series = growth_series(store, args.rmax)
    except CapExceeded:     # the radii the class search completed are exact
        report["series"] = growth_series(store, store.class_search_depth)
        raise
    verdict = classify_growth(series, store)
    write_csv(base + ".csv", ["r", "ball", "shell"],
              zip(series.radii, series.ball, series.shell))
    report["series"] = series
    report["verdict"] = {**asdict(verdict), "label": "empirical"}
    write_json(base + ".json", report)
    print(f"wrote {base}.json: {verdict.kind}, {verdict.details}")
    return EXIT_OK if verdict.kind != "inconclusive" else EXIT_INCONCLUSIVE


def cmd_rd_profile(args, cfg, rd_cfg, store, base, report) -> int:
    from .rd import rd_profile
    profile = rd_profile(store, args.rmax, config=rd_cfg, seed=cfg["seed"])
    report["profile"] = profile
    write_json(base + ".json", report)
    write_csv(base + ".csv", ["r", "best_ratio", "witness"],
              [[b.r, b.ratio, b.witness] for b in profile.best])
    print(f"wrote {base}.json: verdict {profile.verdict}")
    if profile.verdict == "inconclusive" or profile.partial:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_kesten(args, cfg, rd_cfg, store, base, report) -> int:
    from .rd import kesten_diagnostic
    store.enumerate_to(min(args.rmax, rd_cfg["kesten.trunc_radius"]))
    report_obj = kesten_diagnostic(store, config=rd_cfg)
    report["kesten"] = report_obj
    write_json(base + ".json", report)
    print(f"wrote {base}.json: index "
          f"{report_obj.amenability_index:.6f} ({report_obj.hint})")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verification
    _check_out(args.out)
    checks = run_verification(include_golden=not args.no_golden)
    for c in checks:
        print(f"PASS {c.name}" if c.ok else
              f"FAIL {c.name}" + (f": {c.detail}" if c.detail else ""))
    n_bad = sum(not c.ok for c in checks)
    report = {
        "command": "verify",
        "config": CONFIG_DEFAULTS,
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

    def pair_command(name, text, body):
        p = sub.add_parser(name, help=text)
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
        p.set_defaults(func=run_pair_command, body=body)
        return p

    p = pair_command("enumerate", "enumerate a ball and snapshot it",
                     cmd_enumerate)
    p.add_argument("--no-classes", action="store_true",
                   help="skip double-coset computation in the snapshot")
    pair_command("ltable", "per-class L/R/delta/length table", cmd_ltable)
    pair_command("growth", "ball/shell counts and growth verdict", cmd_growth)
    pair_command("rd-profile", "norm-ratio profile and RD verdict",
                 cmd_rd_profile)
    pair_command("kesten", "amenability index diagnostic", cmd_kesten)

    p = sub.add_parser("verify", help="oracle equivalence, invariants and "
                                      "golden snapshots")
    p.add_argument("--out", default="hecke-out",
                   help="output directory (default hecke-out)")
    p.add_argument("--no-golden", action="store_true",
                   help="skip golden snapshot comparison")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a tree pair's ball of radius 7200 holds more than 10^4300 cosets, past
    # the int-to-str digit limit of Python 3.11+: lift it for the run, then
    # give in-process callers their own limit back
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except HeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
