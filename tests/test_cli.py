import argparse
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import heckepairs
from heckepairs.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main
from heckepairs.cosets import CosetStore
from heckepairs.growth import GROWTH_DEFAULTS, GrowthSeries, GrowthVerdict
from heckepairs.rd import BestRatio, KestenReport, RdProfile, RdTestRecord
from heckepairs.verify import CheckResult

from oracles import tree_ball, tree_class_size, tree_level, tree_t1_times_tk


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_ltable_s3(tmp_path):
    out = tmp_path / "o"
    assert main(["ltable", "--pair", "s3-h12", "--rmax", "3",
                 "--out", str(out)]) == EXIT_OK
    rows = read(out / "ltable_s3-h12.csv").strip().splitlines()
    assert rows[0] == "dc_id,rep,L,R,delta,l_word,l_char"
    assert len(rows) == 3
    # (HeH: L=1, R=1, delta=1) and (H(13)H: L=2, R=2, delta=1)
    cells = [r.split(",") for r in rows[1:]]
    assert [c[2:5] for c in cells] == [["1", "1", "1"], ["2", "2", "1"]]


@pytest.mark.parametrize("label,unimodular", [("psl2z1p:2", True),
                                               ("bcp:2", False)])
def test_ltable_json_carries_native_values(tmp_path, label, unimodular):
    # the JSON writes l_char as a float or null and l_word as a Fraction
    # string; the CSV keeps its formatted text and its "NA"
    out = tmp_path / "o"
    assert main(["ltable", "--pair", label, "--rmax", "2",
                 "--out", str(out)]) == EXIT_OK
    slug = label.replace(":", "-")
    report = json.loads(read(out / f"ltable_{slug}.json"))
    rows = read(out / f"ltable_{slug}.csv").strip().splitlines()[1:]
    assert report["characteristic_length_available"] is unimodular
    assert len(report["classes"]) == len(rows) > 2
    for row, line in zip(report["classes"], rows):
        cells = line.split(",")
        assert row["l_word"] == cells[5] and row["l_word"] in ("0", "1", "2")
        if unimodular:
            assert isinstance(row["l_char"], float)
            assert format(row["l_char"], ".12g") == cells[6]
        else:
            assert row["l_char"] is None and cells[6] == "NA"


def test_growth_z2_formula(tmp_path):
    out = tmp_path / "o"
    assert main(["growth", "--pair", "z:2", "--rmax", "25",
                 "--out", str(out)]) == EXIT_OK
    rows = read(out / "growth_z-2.csv").strip().splitlines()
    assert rows[-1] == "25,1301,100"
    report = json.loads(read(out / "growth_z-2.json"))
    assert report["verdict"]["kind"] == "polynomial"
    assert abs(report["verdict"]["alpha"] - 2) <= 0.3
    assert report["verdict"]["label"] == "empirical"
    # thresholds echoed even when defaulted
    assert report["config"]["growth.delta"] == 0.2


def test_rd_profile_bcp_obstructed(tmp_path):
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "bcp:2", "--rmax", "4",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "rd_profile_bcp-2.json"))
    assert report["profile"]["verdict"] == "obstructed-nonunimodular"


def test_enumerate_snapshot_schema(tmp_path):
    out = tmp_path / "o"
    assert main(["enumerate", "--pair", "psl2z1p:2", "--rmax", "2",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "enumerate_psl2z1p-2.json"))
    snap = report["snapshot"]
    assert [c["id"] for c in snap["cosets"]] == list(range(len(snap["cosets"])))
    assert {d["R"] for d in snap["double_cosets"]} == {1, 6, 24}
    assert report["pair"]["label"] == "psl2z1p:2"
    assert report["pair"]["g_generators"]  # conventions surfaced


def test_kesten_artifact(tmp_path):
    out = tmp_path / "o"
    assert main(["kesten", "--pair", "s3-h12", "--rmax", "4",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "kesten_s3-h12.json"))
    assert report["kesten"]["amenability_index"] == pytest.approx(1.0, abs=1e-6)
    assert report["kesten"]["moments"]           # exact rationals as strings
    assert report["kesten"]["warnings"] == []


def test_determinism_byte_identical(tmp_path):
    for cmd in (["growth", "--pair", "z:2", "--rmax", "8"],
                ["rd-profile", "--pair", "z:1", "--rmax", "6", "--seed", "5"],
                ["kesten", "--pair", "dinf", "--rmax", "6"],
                ["enumerate", "--pair", "bcp:2", "--rmax", "3"]):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / (cmd[0] + run)
            assert main(cmd + ["--out", str(out)]) in (EXIT_OK,
                                                       EXIT_INCONCLUSIVE)
            blobs = sorted((p.name, read(out / p.name))
                           for p in out.iterdir())
            outs.append(blobs)
        assert outs[0] == outs[1]


def test_report_keys_are_the_dataclass_fields(tmp_path):
    # one rule writes every report object: its JSON keys are its fields
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def run(*argv):
        code = main([*argv, "--out", str(tmp_path)])
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE)

    run("rd-profile", "--pair", "z:1", "--rmax", "6")
    prof = json.loads(read(tmp_path / "rd_profile_z-1.json"))["profile"]
    assert set(prof) == fields(RdProfile)
    assert prof["records"] and prof["best"]
    for rec in prof["records"]:
        assert set(rec) == fields(RdTestRecord)
    for best in prof["best"]:
        assert set(best) == fields(BestRatio)
    run("kesten", "--pair", "z:1", "--rmax", "6")
    kesten = json.loads(read(tmp_path / "kesten_z-1.json"))["kesten"]
    assert set(kesten) == fields(KestenReport)
    run("growth", "--pair", "z:1", "--rmax", "8")
    growth = json.loads(read(tmp_path / "growth_z-1.json"))
    assert set(growth["series"]) == fields(GrowthSeries)
    assert set(growth["verdict"]) == fields(GrowthVerdict) | {"label"}
    assert main(["verify", "--no-golden", "--out", str(tmp_path)]) == EXIT_OK
    checks = json.loads(read(tmp_path / "verify_report.json"))["checks"]
    assert checks and all(set(c) == fields(CheckResult) for c in checks)


def test_usage_errors(tmp_path, capsys):
    assert main(["growth", "--pair", "nonsense", "--rmax", "3",
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["growth", "--rmax", "3",
                 "--out", str(tmp_path / "y")]) == EXIT_USAGE
    # non-integer numbers in a pair spec, --set or a config file
    files = {"d.spec": "kind=zvec\nd=two\n",
             "n.spec": "kind=perm\nn=x\ng_gen=perm 1 0\n",
             "bad.cfg": "rd.n_random=2.5\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for key, extra in (
            ("'d'", ["--pair-spec", str(tmp_path / "d.spec")]),
            ("'n'", ["--pair-spec", str(tmp_path / "n.spec")]),
            ("'seed'", ["--pair", "z:1", "--set", "seed=abc"]),
            ("'growth.delta'", ["--pair", "z:1", "--set", "growth.delta=x"]),
            ("'rd.n_random'", ["--pair", "z:1",
                               "--config", str(tmp_path / "bad.cfg")])):
        assert main(["growth", "--rmax", "3", "--out", str(tmp_path / "z")]
                    + extra) == EXIT_USAGE
        assert key in capsys.readouterr().err
    # config values outside their domain: nothing is written
    for cmd, setting in (
            ("rd-profile", "rd.s_grid_step=0"),
            ("rd-profile", "rd.s_grid_step=nan"),
            ("rd-profile", "rd.s_grid_max=-1"),
            ("rd-profile", "rd.s_grid_max=inf"),
            ("kesten", "rd.max_iter=0"),
            ("rd-profile", "rd.coeff_max=0"),
            ("rd-profile", "rd.n_random=-1"),
            ("rd-profile", "rd.moment_n=-1"),
            ("rd-profile", "rd.pad=-1"),
            ("kesten", "kesten.n=-1"),
            ("kesten", "kesten.trunc_radius=-1"),
            ("growth", "growth.delta=nan"),
            ("growth", "growth.delta=-0.5"),
            ("growth", "growth.tail_fraction=7"),
            ("growth", "growth.tail_fraction=0"),
            ("rd-profile", "rd.tail_fraction=1.5"),
            ("rd-profile", "rd.tail_fraction=-inf"),
            ("kesten", "rd.tol=nan"),
            ("kesten", "rd.tol=0"),
            ("rd-profile", "rd.max_matrix_cost=0"),
            # float values without a bound must still be finite
            ("growth", "growth.min_r2=nan"),
            ("rd-profile", "rd.stable_slope=inf"),
            ("kesten", "kesten.amenable_min=nan"),
            ("kesten", "kesten.nonamenable_max=-inf")):
        out = tmp_path / "domain"
        assert main([cmd, "--pair", "z:1", "--rmax", "2", "--set", setting,
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        key = setting.partition("=")[0]
        want = ", got " if key in {"growth.min_r2", "rd.stable_slope",
                                   "kesten.amenable_min",
                                   "kesten.nonamenable_max"} else " and "
        assert f"{key} must be finite{want}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_negative_rmax_is_usage_error(tmp_path, capsys):
    for cmd in (["enumerate", "--pair", "z:1"], ["ltable", "--pair", "z:1"],
                ["growth", "--pair", "z:1"], ["rd-profile", "--pair", "z:1"],
                ["kesten", "--pair", "z:1"], ["verify"]):
        out = tmp_path / cmd[0]
        assert main(cmd + ["--rmax", "-1", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "--rmax" in capsys.readouterr().err


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # growth enumerates no ball: the class search interns one coset per
    # class it names, and a cap of 5 hits at depth 4 with depths 0-3 exact
    out = tmp_path / "c"
    code = main(["growth", "--pair", "psl2z1p:2", "--rmax", "6",
                 "--max-cosets", "5", "--out", str(out)])
    assert code == EXIT_INCONCLUSIVE
    report = json.loads(read(out / "growth_psl2z1p-2.json"))
    assert report["partial"] is True
    assert report["cap_exceeded"] == "coset store exceeded max_cosets=5"
    assert report["series"]["radii"] == [0, 1, 2, 3]
    assert report["series"]["ball"] == [1, 7, 31, 127]
    assert "verdict" not in report
    assert not (out / "growth_psl2z1p-2.csv").exists()
    # the tree's word length walks the left cosets of the generator class
    # (L = 6) to seed its search: a cap of 5 hits at depth 1 and leaves
    # radius 0 exact
    capsys.readouterr()
    out = tmp_path / "o"
    code = main(["growth", "--pair", "psl2z1p:2", "--rmax", "5",
                 "--max-orbit", "5", "--out", str(out)])
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == (
        "cap exceeded: left-H orbit exceeded max_orbit=5\n")
    report = json.loads(read(out / "growth_psl2z1p-2.json"))
    assert report["partial"] is True
    assert report["series"]["radii"] == [0]
    assert report["series"]["ball"] == [1]
    # the class reps the search interns pass 20 cosets at depth 4 of the
    # word length: radii 0..3 are exact
    out = tmp_path / "b"
    assert main(["growth", "--pair", "bcp:3", "--rmax", "5",
                 "--out", str(out)]) == EXIT_OK
    full = json.loads(read(out / "growth_bcp-3.json"))["series"]
    # classes reach R = 243, but no orbit is built: an orbit cap of 9 only
    # bounds the left walks of the generator classes
    assert main(["growth", "--pair", "bcp:3", "--rmax", "5",
                 "--max-orbit", "9", "--out", str(out)]) == EXIT_OK
    assert json.loads(read(out / "growth_bcp-3.json"))["series"] == full
    capsys.readouterr()
    code = main(["growth", "--pair", "bcp:3", "--rmax", "5",
                 "--max-cosets", "20", "--out", str(out)])
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == (
        "cap exceeded: coset store exceeded max_cosets=20\n")
    report = json.loads(read(out / "growth_bcp-3.json"))
    assert report["partial"] is True
    assert report["series"]["radii"] == [0, 1, 2, 3]
    assert report["series"]["ball"] == full["ball"][:4]
    assert report["series"]["shell"] == full["shell"][:4]


@pytest.mark.parametrize("cmd,name", [
    (["rd-profile", "--rmax", "3"], "rd_profile_psl2z1p-2"),
    (["kesten", "--rmax", "4"], "kesten_psl2z1p-2")])
def test_rd_commands_write_partial_report_on_cap(tmp_path, capsys, cmd,
                                                 name):
    # the left-H orbit cap hits in the unimodularity check
    out = tmp_path / "o"
    code = main(cmd + ["--pair", "psl2z1p:2", "--max-orbit", "5",
                       "--out", str(out)])
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == (
        "cap exceeded: left-H orbit exceeded max_orbit=5\n")
    assert [p.name for p in out.iterdir()] == [name + ".json"]
    report = json.loads(read(out / (name + ".json")))
    assert report["partial"] is True
    assert report["cap_exceeded"] == "left-H orbit exceeded max_orbit=5"
    assert report["command"] == cmd[0]
    assert report["pair"]["label"] == "psl2z1p:2"
    assert report["config"]["caps.max_orbit"] == 5


@pytest.mark.parametrize("cmd,name,message", [
    (["enumerate", "--rmax", "3", "--max-cosets", "20"],
     "enumerate_psl2z1p-2", "coset store exceeded max_cosets=20"),
    (["enumerate", "--rmax", "2", "--max-orbit", "20"],
     "enumerate_psl2z1p-2", "right-H orbit exceeded max_orbit=20"),
    (["ltable", "--rmax", "3", "--max-orbit", "5"],
     "ltable_psl2z1p-2", "left-H orbit exceeded max_orbit=5")])
def test_table_commands_write_partial_report_on_cap(tmp_path, capsys, cmd,
                                                    name, message):
    out = tmp_path / "o"
    code = main(cmd + ["--pair", "psl2z1p:2", "--out", str(out)])
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == f"cap exceeded: {message}\n"
    assert [p.name for p in out.iterdir()] == [name + ".json"]
    report = json.loads(read(out / (name + ".json")))
    assert report["partial"] is True
    assert report["cap_exceeded"] == message
    assert report["command"] == cmd[0]
    assert report["pair"]["label"] == "psl2z1p:2"
    assert "snapshot" not in report and "classes" not in report


@pytest.mark.parametrize("argv,name,message,radii", [
    (["enumerate", "--pair", "psl2z1p:2", "--rmax", "3", "--max-orbit", "5"],
     "enumerate_psl2z1p-2", "right-H orbit exceeded max_orbit=5", None),
    (["ltable", "--pair", "psl2z1p:2", "--rmax", "3", "--max-orbit", "5"],
     "ltable_psl2z1p-2", "left-H orbit exceeded max_orbit=5", None),
    # the class search completes depths 0-3 before the cap hits at depth 4
    (["growth", "--pair", "bcp:3", "--rmax", "5", "--max-cosets", "20"],
     "growth_bcp-3", "coset store exceeded max_cosets=20", [0, 1, 2, 3]),
    (["rd-profile", "--pair", "psl2z1p:2", "--rmax", "3", "--max-orbit", "5"],
     "rd_profile_psl2z1p-2", "left-H orbit exceeded max_orbit=5", None),
    (["kesten", "--pair", "psl2z1p:2", "--rmax", "4", "--max-orbit", "5"],
     "kesten_psl2z1p-2", "left-H orbit exceeded max_orbit=5", None),
    # the 841-coset ball fits the store, its class table does not
    (["kesten", "--pair", "z:2", "--rmax", "20", "--max-cosets", "1000",
      "--set", "kesten.trunc_radius=20"], "kesten_z-2",
     "class table of 841 cosets exceeds 16000 entries "
     "(16 * max_cosets=1000)", None)])
def test_every_pair_command_writes_one_partial_report_on_cap(
        tmp_path, capsys, argv, name, message, radii):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_INCONCLUSIVE
    streams = capsys.readouterr()
    assert streams.err == f"cap exceeded: {message}\n"
    assert streams.out == f"wrote {out / name}.json: partial\n"
    assert [p.name for p in out.iterdir()] == [name + ".json"]
    report = json.loads(read(out / (name + ".json")))
    head = {"pair", "seed", "config", "command", "partial", "cap_exceeded"}
    assert set(report) == head | ({"series"} if radii is not None else set())
    assert report["command"] == argv[0]
    assert report["pair"]["label"] == argv[2]
    assert report["partial"] is True
    assert report["cap_exceeded"] == message
    if radii is not None:
        assert report["series"]["radii"] == radii


def test_growth_tree_reaches_rmax_12(tmp_path):
    # the level-12 class holds 3 * 2^23 cosets, far past max_orbit: its
    # size comes from the class search's counting rule, not from its orbit
    out = tmp_path / "o"
    assert main(["growth", "--pair", "psl2z1p:2", "--rmax", "12",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "growth_psl2z1p-2.json"))
    assert report["series"]["ball"] == [2 ** (2 * r + 1) - 1
                                        for r in range(13)]
    assert report["series"]["ball"][-1] == 33_554_431
    assert report["verdict"]["kind"] == "exponential"


def test_ltable_tree_reaches_rmax_12(tmp_path):
    # L and R of every class come from the class search's counting rule:
    # a walk of the level-12 class's 3 * 2^23 left cosets would stop at the
    # default orbit cap
    out = tmp_path / "o"
    assert main(["ltable", "--pair", "psl2z1p:2", "--rmax", "12",
                 "--out", str(out)]) == EXIT_OK
    pair = heckepairs.get_pair("psl2z1p:2")
    rows = json.loads(read(out / "ltable_psl2z1p-2.json"))["classes"]
    levels = []
    for row in rows:
        k = tree_level(pair.parse(row["rep"]).to_fractions(), 2)
        levels.append(k)
        assert row["L"] == row["R"] == tree_class_size(2, k)
        assert (row["delta"], row["l_word"]) == ("1", str(k))
    assert sorted(levels) == list(range(13))


def test_rd_profile_third_moments_on_the_tree(tmp_path):
    # f^{*3} reaches the level-12 class (3 * 2^23 cosets): its structure
    # constants come from class keys and its size from the class search's
    # counting rule, so default caps hold
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "psl2z1p:2", "--rmax", "4",
                 "--set", "rd.moment_n=3", "--out", str(out)]) == EXIT_OK
    profile = json.loads(read(out / "rd_profile_psl2z1p-2.json"))["profile"]
    assert profile["partial"] is False and profile["warnings"] == []
    assert len(profile["records"]) == 25
    # the shell T_1 at r = 1: a_3 = sum_k R_k c_k^2 over T_1^3 = sum_k c_k T_k
    # from the sphere recursion, and rho_3 = a_3^(1/6) stays below the norm
    # of T_1, which is 6 * 5/6 = 5
    cube = {}
    for k, c in tree_t1_times_tk(2, 1).items():
        for n, e in (tree_t1_times_tk(2, k).items() if k else [(1, 1)]):
            cube[n] = cube.get(n, 0) + c * e
    a_3 = sum(tree_class_size(2, k) * c * c for k, c in cube.items())
    (shell,) = [rec for rec in profile["records"]
                if rec["r"] == 1 and rec["family"] == "shell"]
    assert shell["moment_root"] == pytest.approx(a_3 ** (1 / 6), rel=1e-9)
    assert shell["moment_root"] < 5


def test_rd_profile_obstructs_a_pair_without_finite_generators(tmp_path):
    # the unimodularity probes of bc fail before any ball is needed, so
    # rd-profile gives its verdict where growth cannot run at all
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "bc", "--rmax", "2",
                 "--out", str(out)]) == EXIT_OK
    profile = json.loads(read(out / "rd_profile_bc.json"))["profile"]
    assert profile["verdict"] == "obstructed-nonunimodular"
    assert profile["records"] == []
    assert main(["growth", "--pair", "bc", "--rmax", "2",
                 "--out", str(out)]) == EXIT_USAGE


def test_rd_profile_warns_of_clipped_truncation_radii(tmp_path):
    # at r = 3 the padded ball's radius 5 times the test functions' support
    # exceeds the budget: the radius is clipped, and the report says so
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "psl2z1p:2", "--rmax", "3",
                 "--set", "rd.max_matrix_cost=2000",
                 "--out", str(out)]) == EXIT_OK
    profile = json.loads(read(out / "rd_profile_psl2z1p-2.json"))["profile"]
    clipped = sorted({rec["trunc_radius"] for rec in profile["records"]
                      if rec["trunc_radius"] < rec["r"] + 2})
    assert clipped == [2, 3]
    assert profile["warnings"] == [
        f"truncation radius at r=3 clipped to {t} of 5 wanted "
        "(rd.max_matrix_cost)" for t in (3, 2)]


def test_tree_growth_builds_no_orbit(tmp_path, monkeypatch):
    stores, built = [], []
    init, compute_orbit = CosetStore.__init__, CosetStore._compute_orbit

    def init_and_record(store, *args, **kwargs):
        init(store, *args, **kwargs)
        stores.append(store)

    def orbit_and_record(store, start):
        built.append(compute_orbit(store, start))
        return built[-1]

    monkeypatch.setattr(CosetStore, "__init__", init_and_record)
    monkeypatch.setattr(CosetStore, "_compute_orbit", orbit_and_record)
    assert main(["growth", "--pair", "psl2z1p:2", "--rmax", "12",
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    (store,) = stores
    # growth reads the class search alone: no Schreier ball is enumerated
    assert store.radius_complete == -1
    gens = {store.dc(store.lookup(s)) for s in store.pair.shat()}
    assert gens == {store.identity_class(), 1}
    # H and the generator class are sized by left walks, every other class
    # by the class search's counting rule: no member list is built
    assert built == []
    assert all(obj.member_cids is None for obj in store.dcs)
    # the search interns about one coset per class it names (13 classes to
    # level 12); the radius-12 ball held 22,440
    assert len(store) <= 14


def test_growth_tree_reaches_rmax_64(tmp_path):
    # the class search interns a coset per class and the ball sizes are
    # exact ints far past any float or enumerable ball
    out = tmp_path / "o"
    assert main(["growth", "--pair", "psl2z1p:2", "--rmax", "64",
                 "--out", str(out)]) == EXIT_OK
    ball = json.loads(read(out / "growth_psl2z1p-2.json"))["series"]["ball"]
    assert ball == [tree_ball(2, r) for r in range(65)]
    assert all(type(g) is int for g in ball)


@pytest.mark.parametrize("key,extra", [
    ("caps.max_orbit", ["--max-orbit", "-1"]),
    ("caps.max_cosets", ["--max-cosets", "0"]),
    ("caps.max_orbit", ["--set", "caps.max_orbit=0"]),
    ("caps.max_cosets", ["--config", "caps.cfg"])])
def test_nonpositive_caps_are_usage_errors(tmp_path, capsys, key, extra):
    (tmp_path / "caps.cfg").write_text("caps.max_cosets=0\n")
    extra = [str(tmp_path / a) if a.endswith(".cfg") else a for a in extra]
    out = tmp_path / "o"
    assert main(["enumerate", "--pair", "z:1", "--rmax", "2",
                 "--out", str(out)] + extra) == EXIT_USAGE
    assert not out.exists()
    assert key in capsys.readouterr().err


def test_config_integer_too_large_for_a_float(tmp_path, capsys):
    # ints are compared exactly; only floats are tested for finiteness
    huge = int("9" * 401)
    argv = ["growth", "--pair", "z:1", "--rmax", "2"]
    plain = main(argv + ["--out", str(tmp_path / "plain")])
    out = tmp_path / "huge"
    assert main(argv + ["--set", f"caps.max_cosets={huge}",
                        "--out", str(out)]) == plain
    report = json.loads(read(out / "growth_z-1.json"))
    assert report["config"]["caps.max_cosets"] == huge
    capsys.readouterr()
    assert main(argv + ["--set", f"caps.max_cosets={-huge}",
                        "--out", str(tmp_path / "neg")]) == EXIT_USAGE
    assert "caps.max_cosets" in capsys.readouterr().err


def test_config_file_and_set_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("growth.delta=0.3\nseed=9\n")
    out = tmp_path / "o"
    assert main(["growth", "--pair", "z:1", "--rmax", "10",
                 "--config", str(cfgfile), "--set", "growth.min_r2=0.9",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "growth_z-1.json"))
    assert report["config"]["growth.delta"] == 0.3
    assert report["config"]["growth.min_r2"] == 0.9
    assert report["seed"] == 9
    bad = tmp_path / "bad.cfg"
    bad.write_text("no.such.key=1\n")
    assert main(["growth", "--pair", "z:1", "--rmax", "4",
                 "--config", str(bad), "--out", str(out)]) == EXIT_USAGE


def test_custom_pair_spec(tmp_path):
    spec = tmp_path / "pair.cfg"
    spec.write_text("kind=perm\nlabel=c6-h3\nn=6\n"
                    "g_gen=perm 1 2 3 4 5 0\n"
                    "h_gen=perm 2 3 4 5 0 1\n")
    out = tmp_path / "o"
    assert main(["ltable", "--pair-spec", str(spec), "--rmax", "6",
                 "--out", str(out)]) == EXIT_OK
    rows = read(out / "ltable_c6-h3.csv").strip().splitlines()
    assert len(rows) == 1 + 2   # C6 over the order-3 subgroup: two cosets


@pytest.mark.parametrize("line", ["label=plane", "g_gen=zvec 2 0",
                                  "h_gen=zvec 1 0"])
def test_zvec_spec_rejects_ignored_lines(tmp_path, capsys, line):
    spec = tmp_path / "pair.cfg"
    spec.write_text(f"kind=zvec\nd=2\n{line}\n")
    out = tmp_path / "o"
    assert main(["growth", "--pair-spec", str(spec), "--rmax", "4",
                 "--out", str(out)]) == EXIT_USAGE
    assert line.partition("=")[0] in capsys.readouterr().err
    assert not (out / "growth_z-2.json").exists()


def _child_env():
    """The environment of a child that imports the package these tests
    import, installed or not."""
    src = os.path.dirname(os.path.dirname(heckepairs.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "heckepairs.cli", "growth", "--pair", "z:1",
         "--rmax", "6", "--out", str(tmp_path / "sp")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "polynomial" in proc.stdout


def _tree_bytes(root):
    """The bytes of every file under ``root`` (none if it is missing)."""
    files = {}
    for d, _, names in os.walk(root):
        for n in names:
            with open(os.path.join(d, n), "rb") as fh:
                files[os.path.relpath(os.path.join(d, n), root)] = fh.read()
    return files


def test_in_process_calls_share_one_parser(tmp_path, monkeypatch):
    # main builds its parser once per process; every later call reuses it
    # and writes what a fresh process writes, with no option of an earlier
    # call carried into a later one
    runs = [["growth", "--pair", "z:1", "--rmax", "6",
             "--set", "growth.delta=0.5"],
            ["enumerate", "--pair", "dinf", "--rmax", "3", "--no-classes"],
            ["enumerate", "--pair", "dinf", "--rmax", "3"],
            ["kesten", "--pair", "z:1", "--rmax", "4"],
            ["growth", "--pair", "z:1", "--rmax", "6", "--bogus"],
            ["growth", "--pair", "z:1", "--rmax", "6"]]
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    codes = []
    for i, argv in enumerate(runs):
        if i == 1:
            monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
            argparse.ArgumentParser()
            assert built == [1]     # the counter sees a construction
            built[0] = 0
        try:
            codes.append(main(argv + ["--out", str(tmp_path / f"in{i}")]))
        except SystemExit as exc:
            codes.append(exc.code)
    monkeypatch.undo()
    assert built == [0]
    assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    for i, argv in enumerate(runs):
        out = tmp_path / f"sub{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "heckepairs.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == codes[i], proc.stderr
        assert _tree_bytes(tmp_path / f"in{i}") == _tree_bytes(out)
    first = json.loads(read(tmp_path / "in0" / "growth_z-1.json"))
    last = json.loads(read(tmp_path / "in5" / "growth_z-1.json"))
    assert first["config"]["growth.delta"] == 0.5
    assert last["config"] == {**first["config"], **GROWTH_DEFAULTS}
    snapshots = [json.loads(read(tmp_path / f"in{i}" / "enumerate_dinf.json"))
                 ["snapshot"] for i in (1, 2)]
    assert snapshots[0] != snapshots[1]


def test_import_leaves_scipy_unloaded():
    # scipy serves the power iteration alone and is loaded there
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, heckepairs, heckepairs.cli; "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_numpy_loaded_by_the_operator_layer_only(tmp_path):
    # numpy serves the truncated operators alone: importing the package
    # and a growth run leave it unloaded
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, heckepairs, heckepairs.cli; "
         "print('numpy' in sys.modules); "
         "heckepairs.cli.main(['growth', '--pair', 'psl2z1p:2', "
         f"'--rmax', '6', '--out', {str(tmp_path)!r}]); "
         "print('numpy' in sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stderr.strip() == "False"
    assert list(tmp_path.iterdir())


def test_verify_command(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "verify_report.json"))
    assert report["failures"] == 0
    assert all(c["ok"] for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert {"structure-constants-mirror[bcp:2]",
            "structure-constants-mirror[psl2z1p:2]"} <= names
