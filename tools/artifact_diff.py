"""Compare the artifacts of a fixed list of ``hecke`` runs between two
checkouts.

    python tools/artifact_diff.py PARENT CHANGE

Each run executes in both checkouts, with ``PYTHONPATH=<checkout>/src`` and
its own empty ``--out`` directory; a run that gives its own ``--out`` keeps
it.  A run differs when its files (names or
bytes), its stdout (with the out directory replaced by ``OUT``), its stderr
or its exit code differ.  Every differing run is printed with what differs;
the exit code is 1 if any run differs, else 0.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

RD_TREE = ["--set", "rd.pad=1", "--set", "rd.n_random=1",
           "--set", "rd.max_matrix_cost=500000"]

# input files that main writes into its temp dir under these names, so
# both checkouts read the same file: custom pair specs and a config file
SPECS = {
    # S5 over S2 x S3: the spec's payloads are parsed by the perm grammar
    # of PermPair.parse, and the pair hashes Perm payloads in the closure
    # of H
    "s5-h12.spec": ("kind=perm\nlabel=s5-h12\nn=5\n"
                    "g_gen=perm 1 0 2 3 4\ng_gen=perm 1 2 3 4 0\n"
                    "h_gen=perm 1 0 2 3 4\nh_gen=perm 0 1 3 4 2\n"
                    "h_gen=perm 0 1 3 2 4\n"),
    # all 18 settable values at their defaults
    "defaults.cfg": ("caps.max_cosets=2000000\ncaps.max_orbit=100000\n"
                     "seed=0\nrd.pad=2\nrd.max_matrix_cost=3000000\n"
                     "rd.moment_n=1\nrd.n_random=2\nrd.coeff_max=9\n"
                     "rd.s_grid_max=3.0\nrd.s_grid_step=0.25\n"
                     "rd.stable_slope=0.1\nrd.tail_fraction=0.5\n"
                     "rd.tol=1e-8\nrd.max_iter=20000\nkesten.n=8\n"
                     "kesten.trunc_radius=6\nkesten.amenable_min=0.99\n"
                     "kesten.nonamenable_max=0.95\n"),
}

RUNS = [
    *(["growth", "--pair", p, "--rmax", str(r)] for p, r in (
        ("psl2z1p:2", 8), ("psl2z1p:2", 12), ("psl2z1p:2", 16),
        ("z:1", 40), ("z:2", 25), ("bcp:2", 10), ("bcp:2", 16), ("bcp:3", 7),
        ("bcp:5", 6), ("dinf", 8), ("sl2z1p:2", 8))),
    *(["ltable", "--pair", p, "--rmax", str(r)] for p, r in (
        ("psl2z1p:2", 4), ("psl2z1p:2", 8), ("bcp:2", 8), ("bcp:3", 5),
        ("s3-h12", 3), ("s4-h12", 4), ("s4-h12-34", 4), ("dinf", 6),
        ("z:2", 5), ("sl2z1p:2", 5), ("bcp:5", 5))),
    *(["enumerate", "--pair", p, "--rmax", str(r)] for p, r in (
        ("bcp:2", 3), ("psl2z1p:2", 3), ("s4-h12", 4), ("dinf", 4))),
    # the largest snapshot: the id and BFS depth of each of 1,861 cosets
    ["enumerate", "--pair", "z:2", "--rmax", "30", "--no-classes"],
    ["rd-profile", "--pair", "z:1", "--rmax", "20", "--seed", "1"],
    # the longest power iterations: a signed test function takes 993 steps
    ["rd-profile", "--pair", "z:1", "--rmax", "30", "--seed", "1"],
    # power iterations stopped by their cap, which the report names
    ["rd-profile", "--pair", "z:1", "--rmax", "8", "--seed", "1",
     "--set", "rd.max_iter=3"],
    ["rd-profile", "--pair", "z:2", "--rmax", "10", "--seed", "1"],
    ["rd-profile", "--pair", "psl2z1p:2", "--rmax", "5", "--seed", "1",
     *RD_TREE],
    ["rd-profile", "--pair", "bcp:2", "--rmax", "4"],
    ["rd-profile", "--pair", "psl2z1p:2", "--rmax", "4",
     "--set", "rd.moment_n=3"],
    ["rd-profile", "--pair", "dinf", "--rmax", "5"],
    ["rd-profile", "--pair", "s4-h12", "--rmax", "4"],
    ["rd-profile", "--pair", "psl2z1p:2", "--rmax", "6"],
    ["kesten", "--pair", "z:1", "--rmax", "6", "--seed", "1"],
    *(["kesten", "--pair", p, "--rmax", r] for p, r in (
        ("psl2z1p:2", "6"), ("dinf", "6"), ("bcp:2", "5"))),
    # a small support on a large ball with H trivial: the class table is
    # all of the build
    ["kesten", "--pair", "z:2", "--rmax", "20",
     "--set", "kesten.trunc_radius=20"],
    # runs near the caps: exit 3 with a partial report where a cap is hit
    ["growth", "--pair", "psl2z1p:2", "--rmax", "5", "--max-orbit", "5"],
    ["ltable", "--pair", "psl2z1p:2", "--rmax", "3", "--max-orbit", "5"],
    ["growth", "--pair", "bcp:3", "--rmax", "5", "--max-orbit", "9"],
    ["ltable", "--pair", "psl2z1p:2", "--rmax", "9"],
    ["enumerate", "--pair", "psl2z1p:2", "--rmax", "3", "--max-orbit", "5"],
    ["rd-profile", "--pair", "psl2z1p:2", "--rmax", "3", "--max-orbit", "5"],
    ["kesten", "--pair", "psl2z1p:2", "--rmax", "4", "--max-orbit", "5"],
    # a coset cap hit inside the class search: the partial growth series
    # holds the depths the search completed (radii 0-6)
    ["growth", "--pair", "z:2", "--rmax", "25", "--max-cosets", "100"],
    # a class-table cap hit: the truncated norms from r = 2 on are skipped
    # with a warning each, and the partial report is written
    ["rd-profile", "--pair", "z:2", "--rmax", "4", "--max-cosets", "100"],
    # ltable past the radii above: on bcp:2 at rmax 10 the class search
    # names classes outside the ball; psl2z1p:3 is the degree-4 tree.
    # Structure constants counted from the cheaper side are reached by the
    # moment runs: rd-profile with rd.moment_n=3, kesten and verify
    ["ltable", "--pair", "bcp:2", "--rmax", "10"],
    ["ltable", "--pair", "psl2z1p:3", "--rmax", "6"],
    # a non-unimodular pair through involution (Delta != 1) and four
    # moment orders
    ["kesten", "--pair", "bcp:3", "--rmax", "4", "--set", "kesten.n=4"],
    # the class tables that leave the largest share of their entries to
    # class-key products rather than generator moves
    ["rd-profile", "--pair", "sl2z1p:2", "--rmax", "5", "--seed", "1"],
    ["kesten", "--pair", "psl2z1p:3", "--rmax", "5"],
    # higher moments, whose exact sums carry the largest numerators
    ["kesten", "--pair", "psl2z1p:2", "--rmax", "4", "--set", "kesten.n=10"],
    ["kesten", "--pair", "bcp:2", "--rmax", "4", "--set", "kesten.n=8"],
    # every coset representative rendered from the affine payload's
    # Fraction views, such as `aff -1/3 1` and `aff 0 1/27`
    ["enumerate", "--pair", "bcp:3", "--rmax", "6"],
    ["enumerate", "--pair", "bcp:5", "--rmax", "4"],
    # the serialization rule's edges: weighted-norm keys "10.0"-"12.0"
    # sort as strings, before "2.0", and kesten names a capped iteration
    ["rd-profile", "--pair", "z:1", "--rmax", "6",
     "--set", "rd.s_grid_max=12"],
    ["kesten", "--pair", "z:1", "--rmax", "6", "--set", "rd.max_iter=3"],
    # every value read from a config file, and the one moment-count setter
    ["rd-profile", "--pair", "z:1", "--rmax", "6", "--config", "defaults.cfg"],
    ["kesten", "--pair", "z:1", "--rmax", "6", "--set", "kesten.n=3"],
    # the class search over each remaining payload: `Vec` of length 3
    # and 4, `Dih` past radius 8 and `Perm`
    ["growth", "--pair", "z:3", "--rmax", "12"],
    ["growth", "--pair", "z:4", "--rmax", "10"],
    ["growth", "--pair", "dinf", "--rmax", "40"],
    ["growth", "--pair", "s4-h12", "--rmax", "6"],
    # a pair built from a spec file, the one path that parses payloads
    ["ltable", "--pair-spec", "s5-h12.spec", "--rmax", "4"],
    # a config integer too large for a float, which is compared exactly
    # and caps nothing here
    ["growth", "--pair", "z:1", "--rmax", "2",
     "--set", "caps.max_cosets=" + "9" * 401],
    ["verify"],
    # verify takes only --out and --no-golden: a pair option is a usage
    # error that writes nothing (a checkout that took it wrote a report
    # echoing caps it never applied)
    ["verify", "--max-cosets", "5"],
    # a key=value file that does not exist: a usage error that names it
    # and writes nothing (a checkout without the check crashed with exit 1)
    ["growth", "--pair", "z:1", "--config", "nosuch.cfg"],
    ["growth", "--pair-spec", "nosuch.spec"],
    # growth verdicts that resume the class search past rmax, or stop it:
    # z:2's and z:3's recurrences need more terms than rmax 4 gives, a cap
    # hit on the way is inconclusive, and the search ends on s4-h12
    ["growth", "--pair", "z:2"],
    ["growth", "--pair", "s4-h12"],
    ["growth", "--pair", "z:3", "--rmax", "4"],
    ["growth", "--pair", "z:3", "--rmax", "4", "--max-cosets", "200"],
    ["growth", "--pair", "z:1", "--rmax", "1"],
    # the class budget's floor: z:3 from rmax 0 names 6,017 classes by
    # D = 16, under the 10,000 that any rmax allows
    ["growth", "--pair", "z:3", "--rmax", "0"],
    # the smallest radius where bcp:2's class ids, which the class search
    # gives stepping from each class's rep, differ from those of a walk
    # over each class's members
    ["ltable", "--pair", "bcp:2", "--rmax", "7"],
    # a pair without a finite generating set: exit 2 with its message
    ["growth", "--pair", "bc"],
    # an out directory that cannot be made: a usage error that names the
    # path and writes nothing (a checkout without the check crashed with
    # exit 1 after all its work)
    ["growth", "--pair", "z:1", "--rmax", "2", "--out", "/dev/null/x"],
    # kesten past its truncation radius (6), whose ball is all it reads,
    # and below its own radius 1
    ["kesten", "--pair", "psl2z1p:2", "--rmax", "12"],
    ["kesten", "--pair", "z:1", "--rmax", "0"],
    # rd-profile's class search stops at rmax: third moments whose products
    # pass it, and no padding at all
    ["rd-profile", "--pair", "psl2z1p:3", "--rmax", "4",
     "--set", "rd.moment_n=3"],
    ["rd-profile", "--pair", "z:2", "--rmax", "6", "--set", "rd.pad=0"],
    # ltable reads the class search alone: at rmax 16 it builds no
    # 613,240-coset ball, and at rmax 8 a coset cap that only the ball
    # reached is not hit
    ["ltable", "--pair", "psl2z1p:2", "--rmax", "16"],
    ["ltable", "--pair", "psl2z1p:2", "--rmax", "8", "--max-cosets", "100"],
    # the cap branches of the one lower-bound rule: rd-profile skips the
    # moments past the orbit cap; with both bounds capped it warns of the
    # truncated norm before the moments at each radius, and kesten names
    # the moments' cap, which it meets first
    ["rd-profile", "--pair", "psl2z1p:2", "--rmax", "2", "--max-orbit", "23",
     "--set", "rd.moment_n=3"],
    ["rd-profile", "--pair", "z:2", "--rmax", "4", "--max-cosets", "100",
     "--set", "rd.moment_n=3"],
    ["kesten", "--pair", "z:2", "--rmax", "6", "--max-cosets", "100"],
]


def run(checkout: str, argv: list[str], out: str, specs: str) -> dict:
    """Run one command, with each input file name in ``argv`` read from
    the dir ``specs`` and ``--out out`` unless ``argv`` gives one; its
    files under ``out``, stdout, stderr and exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    argv = [os.path.join(specs, a) if a in SPECS else a for a in argv]
    if "--out" not in argv:
        argv += ["--out", out]
    proc = subprocess.run(
        [sys.executable, "-m", "heckepairs.cli", *argv],
        cwd=out, env=env, capture_output=True, text=True)
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    return {"files": files, "stdout": proc.stdout.replace(out, "OUT"),
            "stderr": proc.stderr.replace(out, "OUT"),
            "exit": proc.returncode}


def differences(a: dict, b: dict) -> list[str]:
    out = []
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            out.append(f"file {name}")
    out += [part for part in ("stdout", "stderr", "exit")
            if a[part] != b[part]]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/artifact_diff.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(p) for p in argv)
    n_diff = 0
    with tempfile.TemporaryDirectory() as tmp:
        specs = os.path.join(tmp, "specs")
        os.mkdir(specs)
        for name, text in SPECS.items():
            with open(os.path.join(specs, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for i, cmd in enumerate(RUNS):
            results = []
            for side, checkout in (("parent", parent), ("change", change)):
                out = os.path.join(tmp, f"{i}-{side}")
                os.mkdir(out)
                results.append(run(checkout, cmd, out, specs))
            diff = differences(*results)
            if diff:
                n_diff += 1
                a, b = results
                print(f"DIFF hecke {' '.join(cmd)}: {', '.join(diff)}")
                if "exit" in diff:
                    print(f"  exit {a['exit']} -> {b['exit']}")
                if "stderr" in diff:
                    print(f"  stderr {a['stderr']!r} -> {b['stderr']!r}")
    print(f"{n_diff} of {len(RUNS)} runs differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
