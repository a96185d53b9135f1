import argparse
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckepairs
from heckepairs.cli import (CONFIG_DEFAULTS, CONFIG_KEYS, EXIT_INCONCLUSIVE,
                           EXIT_OK, EXIT_USAGE, main, write_csv, write_json)
from heckepairs.config import MAX_RADIUS
from heckepairs.cosets import CosetStore
from heckepairs.groups import Z_MAX_DIMENSION
from heckepairs.growth import GrowthSeries, GrowthVerdict
from heckepairs.rd import BestRatio, KestenReport, RdProfile, RdTestRecord
from heckepairs.verify import CheckResult

from oracles import (off_domain, reference_report_json, tree_ball,
                     tree_class_size, tree_level, tree_t1_times_tk)


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


# the radii each pair's table is written at
LTABLE_RADII = {"psl2z1p:2": (2,), "bcp:2": (2, 8), "s4-h12": (4,)}


@pytest.mark.parametrize("label,unimodular", [("psl2z1p:2", True),
                                               ("bcp:2", False),
                                               ("s4-h12", True)])
def test_ltable_json_carries_native_values(tmp_path, label, unimodular):
    # the JSON writes l_char as a float or null and l_word as a Fraction
    # string; the CSV keeps its formatted text and its "NA".  Every ball
    # class has a word length <= rmax, its coset's BFS depth bounding it
    slug = label.replace(":", "-")
    for rmax in LTABLE_RADII[label]:
        out = tmp_path / str(rmax)
        assert main(["ltable", "--pair", label, "--rmax", str(rmax),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(read(out / f"ltable_{slug}.json"))
        rows = read(out / f"ltable_{slug}.csv").strip().splitlines()[1:]
        assert report["characteristic_length_available"] is unimodular
        assert len(report["classes"]) == len(rows) > 2
        for row, line in zip(report["classes"], rows):
            cells = line.split(",")
            assert row["l_word"] == cells[5]
            assert row["l_word"] in [str(k) for k in range(rmax + 1)]
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
    assert report["verdict"]["alpha"] == 2
    assert report["verdict"]["chi"] == [1, -3, 3, -1]
    assert report["verdict"]["label"] == "empirical"
    # thresholds echoed even when defaulted
    assert report["config"]["rd.stable_slope"] == 0.1


def test_rd_profile_bcp_obstructed(tmp_path):
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "bcp:2", "--rmax", "4",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "rd_profile_bcp-2.json"))
    assert report["profile"]["verdict"] == "obstructed-nonunimodular"


def test_rd_profile_inconclusive_writes_its_artifacts(tmp_path):
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "z:1", "--rmax", "2",
                 "--out", str(out)]) == EXIT_INCONCLUSIVE
    report = json.loads(read(out / "rd_profile_z-1.json"))
    assert report["profile"]["verdict"] == "inconclusive"
    rows = read(out / "rd_profile_z-1.csv").splitlines()
    assert rows[0] == "r,best_ratio,witness"
    assert [int(row.split(",")[0]) for row in rows[1:]] == [
        b["r"] for b in report["profile"]["best"]]


def test_rd_profile_superpolynomial_ratio_on_the_tree(tmp_path):
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "psl2z1p:2", "--rmax", "5",
                 "--set", "rd.pad=1", "--set", "rd.n_random=1",
                 "--set", "rd.max_matrix_cost=500000",
                 "--set", "rd.s_grid_max=0",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "rd_profile_psl2z1p-2.json"))
    assert report["profile"]["verdict"] == "superpolynomial-ratio"


def test_growth_capped_past_rmax_is_inconclusive(tmp_path, capsys):
    # z:3's order-4 recurrence needs 8 terms to be found: the class search
    # resumes past rmax 4, and at depth 8 (833 cosets) it hits the cap
    out = tmp_path / "o"
    assert main(["growth", "--pair", "z:3", "--rmax", "4",
                 "--max-cosets", "200",
                 "--out", str(out)]) == EXIT_INCONCLUSIVE
    report = json.loads(read(out / "growth_z-3.json"))
    assert report["series"]["ball"] == [1, 7, 25, 63, 129]
    assert "partial" not in report
    verdict = report["verdict"]
    assert verdict["kind"] == "inconclusive"
    assert verdict["details"].startswith("cap hit at depth 8: ")
    assert "max_cosets=200" in verdict["details"]
    assert verdict["details"] in capsys.readouterr().out


def test_growth_stops_at_the_class_budget(tmp_path, capsys):
    # Z^5's order-6 recurrence needs D = 32, about 9 x 10^6 cosets; at the
    # default rmax 4 the 681 classes of word length <= 4 set the budget at
    # 64 x 681 = 43,584, and the search stops at depth 11 with a complete
    # report
    out = tmp_path / "o"
    assert main(["growth", "--pair", "z:5",
                 "--out", str(out)]) == EXIT_INCONCLUSIVE
    report = json.loads(read(out / "growth_z-5.json"))
    assert report["series"]["ball"] == [1, 11, 61, 231, 681]
    assert "partial" not in report
    verdict = report["verdict"]
    assert verdict["kind"] == "inconclusive"
    assert verdict["details"].startswith(
        "class budget 43584 exceeded: 56695 classes named by depth 11")
    assert verdict["details"] in capsys.readouterr().out
    assert read(out / "growth_z-5.csv").splitlines()[-1] == "4,681,450"


def test_growth_reads_z1_at_rmax_0_and_1(tmp_path):
    for rmax in ("0", "1"):
        out = tmp_path / rmax
        assert main(["growth", "--pair", "z:1", "--rmax", rmax,
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(read(out / "growth_z-1.json"))
        assert report["series"]["radii"] == list(range(int(rmax) + 1))
        verdict = report["verdict"]
        assert (verdict["kind"], verdict["alpha"]) == ("polynomial", 1)
        assert verdict["details"].endswith(
            "found on r <= 4, checked through r <= 8")


def test_growth_keys_are_gone(tmp_path, capsys):
    out = tmp_path / "o"
    for key in ("growth.delta", "growth.tail_fraction", "growth.min_r2"):
        assert key not in CONFIG_DEFAULTS
        assert main(["growth", "--pair", "z:1", "--set", f"{key}=0.2",
                     "--out", str(out)]) == EXIT_USAGE
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()


def test_a_large_composite_p_exits_2(tmp_path, capsys):
    # 1000000007 * 1000000009, refused before any work
    out = tmp_path / "out"
    assert main(["growth", "--pair", "bcp:1000000016000000063",
                 "--out", str(out)]) == EXIT_USAGE
    assert "p must be prime" in capsys.readouterr().err
    assert not out.exists()


def test_refused_pair_writes_no_out_directory(tmp_path, capsys):
    # bc has no finite generating set: each body refuses it before its
    # first artifact, so the out directory is never made
    for cmd in ("growth", "kesten", "ltable", "enumerate"):
        out = tmp_path / cmd
        assert main([cmd, "--pair", "bc", "--rmax", "2",
                     "--out", str(out)]) == EXIT_USAGE
        assert "no finite generating set" in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "rd"
    assert main(["rd-profile", "--pair", "bc", "--rmax", "2",
                 "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["rd_profile_bc.csv",
                                                      "rd_profile_bc.json"]


@pytest.mark.parametrize("argv", [["growth", "--pair", "z:1", "--rmax", "2"],
                                  ["verify", "--no-golden"]],
                         ids=["growth", "verify"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    # an out directory under a regular file cannot be made: the run exits
    # 2 naming the path, writes nothing, and is not verify's exit 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert f"cannot write {out}{os.sep}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_unwritable_out_is_refused_before_the_checks(tmp_path, capsys):
    # verify runs none of its checks, so prints no PASS line, when its out
    # directory cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["verify", "--no-golden", "--out",
                 str(blocker / "out")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert f"{blocker} is not a directory" in captured.err


@pytest.mark.parametrize("out", ["file/out", "file/a/b", "file"])
def test_unwritable_out_is_refused_before_the_profile(tmp_path, capsys,
                                                      monkeypatch, out):
    # the nearest existing ancestor of --out is checked before the store
    # is made: rd_profile is never called and nothing is created
    from heckepairs import rd

    def refuse(*args, **kwargs):
        raise AssertionError("rd_profile ran")

    monkeypatch.setattr(rd, "rd_profile", refuse)
    (tmp_path / "file").write_text("")
    assert main(["rd-profile", "--pair", "z:2", "--rmax", "10",
                 "--out", str(tmp_path / out)]) == EXIT_USAGE
    assert "is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_read_only_out_is_refused_before_the_work(tmp_path, capsys,
                                                  monkeypatch):
    # an existing ancestor that is a directory but not writable is refused
    # as well, naming it
    from heckepairs import rd

    monkeypatch.setattr(rd, "rd_profile", None)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert main(["rd-profile", "--pair", "z:1", "--out",
                 str(tmp_path / "a" / "b")]) == EXIT_USAGE
    assert f"{tmp_path} is not writable" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_kesten_enumerates_only_its_truncation_radius(tmp_path,
                                                      monkeypatch):
    # kesten reads the ball of radius kesten.trunc_radius (6) at most, so
    # rmax 12 enumerates no further and writes the bytes of rmax 6
    asked = []
    enumerate_to = CosetStore.enumerate_to

    def recorded(store, r_max):
        asked.append(r_max)
        return enumerate_to(store, r_max)

    monkeypatch.setattr(CosetStore, "enumerate_to", recorded)
    for rmax in ("12", "6"):
        assert main(["kesten", "--pair", "psl2z1p:2", "--rmax", rmax,
                     "--out", str(tmp_path / rmax)]) == EXIT_OK
    assert asked and max(asked) == 6
    assert read(tmp_path / "12" / "kesten_psl2z1p-2.json") \
        == read(tmp_path / "6" / "kesten_psl2z1p-2.json")


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


@dataclasses.dataclass
class Record:
    name: str
    value: object


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                  0.1 + 0.2, 1e16, 123456789012345.0, 5e-324, 1 / 3, 1e-7]
scalars = (st.none() | st.booleans() | st.integers() | st.fractions()
           | st.sampled_from(SPECIAL_FLOATS) | st.floats()
           | st.text() | st.text(st.characters(max_codepoint=0x1f))
           | st.sampled_from(["", "é", "\u2603 snow", "tab\tnl\n\"q\"\\",
                              "\x00\x1f\x7f", "\U0001f600"]))
keys = (st.text() | st.integers() | st.floats() | st.fractions()
        | st.booleans() | st.sampled_from([1, "1", True, "True", 0.5]))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)
                   | st.builds(Record, st.text(max_size=3), inner)),
    max_leaves=20)


@given(st.dictionaries(keys, values, max_size=5))
@settings(max_examples=200, deadline=None)
@example({})
@example({1: "int", "1": "str"})
@example({"1": "str", 1: "int", True: [], "True": {}})
@example({"a": [], "b": {}, "c": (), "d": [[], {}]})
@example({Fraction(1, 2): Fraction(-3, 4), 0.5: Record("r", (1, 2.5))})
@example({"f": SPECIAL_FLOATS})
def test_report_bytes_equal_the_json_modules(tmp_path_factory, report):
    # write_json's one-pass encoder against the json module's own text of
    # the same report: sorted keys, one-space indent, ASCII escapes
    path = tmp_path_factory.getbasetemp() / "written" / "report.json"
    write_json(str(path), report)
    assert path.read_bytes() == reference_report_json(report).encode()


@pytest.mark.parametrize("bad", [{1, 2}, object(), frozenset(), b"raw"])
def test_unserializable_report_raises_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "out" / "r.json"
    with pytest.raises(TypeError):
        reference_report_json({"x": [bad]})
    with pytest.raises(TypeError, match=type(bad).__name__):
        write_json(str(path), {"a": 1, "x": [Record("r", bad)]})
    assert not (tmp_path / "out").exists()


def test_main_writes_integers_past_the_digit_limit(tmp_path, monkeypatch):
    # psl2z1p:2's ball of radius 7200 holds more than 10^4300 cosets: while
    # main runs the real writers print such a count in full, and the
    # caller's int-to-str limit (Python 3.11+) is back afterwards
    digits = "1" + "0" * 5000

    def body(args):
        write_json(str(tmp_path / "r.json"), {"ball": [10 ** 5000]})
        write_csv(str(tmp_path / "r.csv"), ["ball"], [[10 ** 5000]])
        return EXIT_OK

    parser = argparse.ArgumentParser()
    parser.set_defaults(func=body)
    monkeypatch.setattr(heckepairs.cli, "build_parser", lambda: parser)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    assert main([]) == EXIT_OK
    assert get_limit() == limit
    assert read(tmp_path / "r.json") == f'{{\n "ball": [\n  {digits}\n ]\n}}\n'
    assert read(tmp_path / "r.csv") == f"ball\n{digits}\n"


def test_usage_errors(tmp_path, capsys):
    assert main(["growth", "--pair", "nonsense", "--rmax", "3",
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["growth", "--rmax", "3",
                 "--out", str(tmp_path / "y")]) == EXIT_USAGE
    # both pair flags: neither names the pair alone, so nothing is written
    (tmp_path / "s5.spec").write_text(
        "kind=perm\nlabel=s5-h12\nn=5\n"
        "g_gen=perm 1 0 2 3 4\ng_gen=perm 1 2 3 4 0\n"
        "h_gen=perm 1 0 2 3 4\nh_gen=perm 0 1 3 4 2\nh_gen=perm 0 1 3 2 4\n")
    capsys.readouterr()
    assert main(["growth", "--pair", "z:1", "--rmax", "2",
                 "--pair-spec", str(tmp_path / "s5.spec"),
                 "--out", str(tmp_path / "both")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--pair " in err and "--pair-spec" in err
    assert not (tmp_path / "both").exists()
    # non-integer numbers in a pair spec, --set or a config file
    files = {"n.spec": "kind=perm\nn=x\ng_gen=perm 1 0\n",
             "bad.cfg": "rd.n_random=2.5\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for key, extra in (
            ("'n'", ["--pair-spec", str(tmp_path / "n.spec")]),
            ("'seed'", ["--pair", "z:1", "--set", "seed=abc"]),
            ("'rd.stable_slope'", ["--pair", "z:1",
                                   "--set", "rd.stable_slope=x"]),
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
            # random coefficients of 10^400 would overflow rd's float roots
            ("rd-profile", "rd.coeff_max=1" + "0" * 400),
            ("rd-profile", "rd.n_random=-1"),
            ("rd-profile", "rd.moment_n=-1"),
            ("rd-profile", "rd.pad=-1"),
            ("kesten", "kesten.n=-1"),
            ("kesten", "kesten.trunc_radius=-1"),
            ("growth", "rd.s_grid_max=nan"),
            ("growth", "rd.s_grid_max=-0.5"),
            ("growth", "rd.tail_fraction=7"),
            ("growth", "rd.tail_fraction=0"),
            ("rd-profile", "rd.tail_fraction=1.5"),
            ("rd-profile", "rd.tail_fraction=-inf"),
            ("kesten", "rd.tol=nan"),
            ("kesten", "rd.tol=0"),
            ("rd-profile", "rd.max_matrix_cost=0"),
            # float values without a bound must still be finite
            ("growth", "rd.stable_slope=nan"),
            ("rd-profile", "rd.stable_slope=inf"),
            ("kesten", "kesten.amenable_min=nan"),
            ("kesten", "kesten.nonamenable_max=-inf")):
        out = tmp_path / "domain"
        assert main([cmd, "--pair", "z:1", "--rmax", "2", "--set", setting,
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        key = setting.partition("=")[0]
        want = ", got " if key in {"rd.stable_slope",
                                   "kesten.amenable_min",
                                   "kesten.nonamenable_max"} else " and "
        assert f"{key} must be finite{want}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("key,value", off_domain(CONFIG_KEYS))
def test_each_domain_row_is_a_usage_error(tmp_path, capsys, key, value):
    cmd = {"caps": "enumerate", "rd": "rd-profile",
           "kesten": "kesten"}[key.partition(".")[0]]
    out = tmp_path / "o"
    assert main([cmd, "--pair", "z:1", "--rmax", "2", "--set",
                 f"{key}={value}", "--out", str(out)]) == EXIT_USAGE
    assert f"{key} must be finite and " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["rd.s_grid_step=1e-9",
                                     "rd.s_grid_max=1e12"])
def test_oversized_weighted_norm_grid_is_a_usage_error(tmp_path, capsys,
                                                       setting):
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "z:1", "--rmax", "2",
                 "--set", setting, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "rd.s_grid_max=" in err and "rd.s_grid_step=" in err
    assert "more than 10000 points" in err
    assert not out.exists()


def test_overlapping_kesten_thresholds_are_a_usage_error(tmp_path, capsys):
    # psl2z1p:2 is non-amenable (exact norm 6/7); with these thresholds its
    # index 0.676 would read "consistent-with-amenable"
    out = tmp_path / "o"
    assert main(["kesten", "--pair", "psl2z1p:2", "--rmax", "4",
                 "--set", "kesten.amenable_min=0.5",
                 "--set", "kesten.nonamenable_max=0.9",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "kesten.nonamenable_max=0.9 exceeds kesten.amenable_min=0.5" in err
    assert not out.exists()


def test_readme_lists_exactly_the_config_keys():
    # README's "Configuration keys" table against the one config table:
    # a key added or dropped on one side fails, and so does a default
    readme = read(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"))
    table = readme.split("\n## Configuration keys\n")[1].split("\n## ")[0]
    listed = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            keys = re.findall(r"`([^`]+)`", cells[0])
            defaults = cells[1].split(" / ")
            assert len(keys) == len(defaults), line
            listed.update(zip(keys, defaults))
    assert set(listed) == set(CONFIG_KEYS)
    for key, default in listed.items():
        assert float(default) == CONFIG_DEFAULTS[key], key


def test_negative_rmax_is_usage_error(tmp_path, capsys):
    for cmd in (["enumerate", "--pair", "z:1"], ["ltable", "--pair", "z:1"],
                ["growth", "--pair", "z:1"], ["rd-profile", "--pair", "z:1"],
                ["kesten", "--pair", "z:1"], ["verify"]):
        out = tmp_path / cmd[0]
        argv = cmd + ["--rmax", "-1", "--out", str(out)]
        if cmd == ["verify"]:
            # verify takes no --rmax: the parser refuses it
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
        else:
            assert main(argv) == EXIT_USAGE
        assert not out.exists()
        assert "--rmax" in capsys.readouterr().err


def test_rmax_past_the_radius_bound_is_usage_error(tmp_path, capsys):
    # a saturated store would pad its ball ends, and growth its series, out
    # to the radius; refused before any work, cheapest command first
    for cmd in (["enumerate", "--pair", "s3-h12"],
                ["growth", "--pair", "s3-h12"], ["ltable", "--pair", "z:1"],
                ["kesten", "--pair", "s3-h12"], ["growth", "--pair", "z:1"],
                ["rd-profile", "--pair", "s3-h12"]):
        out = tmp_path / "o"
        assert main(cmd + ["--rmax", str(MAX_RADIUS + 1),
                           "--out", str(out)]) == EXIT_USAGE
        assert (f"--rmax must be >= 0 and <= {MAX_RADIUS}, got "
                f"{MAX_RADIUS + 1}") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("settings", [["rd.s_grid_max=200"],
                                      ["rd.s_grid_max=182",
                                       "rd.s_grid_step=1"]],
                         ids=["overflow", "infinity"])
def test_weighted_norms_past_a_float_are_usage_errors(tmp_path, capsys,
                                                      settings):
    # (1 + 6)^(2s) overflows a float at s = 200, and the weighted sums
    # reach infinity at s = 182: no report carries either
    out = tmp_path / "o"
    argv = ["rd-profile", "--pair", "z:1", "--rmax", "6", "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "rd.s_grid_max=" in err and "overflows the weighted norms" in err
    assert not out.exists()


def test_verify_takes_only_out_and_no_golden(tmp_path, capsys):
    # the pair options would change nothing verify computes
    for option in (["--rmax", "9"], ["--seed", "7"], ["--max-cosets", "5"],
                   ["--max-orbit", "5"], ["--config", "run.cfg"],
                   ["--set", "rd.stable_slope=0.5"]):
        out = tmp_path / "v"
        with pytest.raises(SystemExit) as exc:
            main(["verify", *option, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert not out.exists()
        assert (f"unrecognized arguments: {' '.join(option)}"
                in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == EXIT_OK
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--out", "--no-golden"}


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


def test_both_capped_bounds_keep_their_order(tmp_path, capsys):
    # from r = 2 on z:2's class table passes 16 * max_cosets entries, and
    # from r = 3 on the moments pass max_cosets: rd-profile zeroes each
    # capped bound and warns of the truncated norm before the moments.
    # kesten computes its moments first and exits on their cap
    out = tmp_path / "o"
    assert main(["rd-profile", "--pair", "z:2", "--rmax", "4",
                 "--max-cosets", "100", "--set", "rd.moment_n=3",
                 "--out", str(out)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == ""
    profile = json.loads(read(out / "rd_profile_z-2.json"))["profile"]
    table = "exceeds 1600 entries (16 * max_cosets=100)"
    moments = "coset store exceeded max_cosets=100"
    assert profile["partial"] is True
    assert [w for w in profile["warnings"] if "skipped" in w] == [
        f"truncated norm skipped at r=2: class table of 41 cosets {table}",
        f"truncated norm skipped at r=3: class table of 61 cosets {table}",
        f"moments skipped at r=3: {moments}",
        f"truncated norm skipped at r=4: class table of 85 cosets {table}",
        f"moments skipped at r=4: {moments}"]
    assert main(["kesten", "--pair", "z:2", "--rmax", "6",
                 "--max-cosets", "100", "--out", str(out)]) == (
        EXIT_INCONCLUSIVE)
    assert capsys.readouterr().err == f"cap exceeded: {moments}\n"
    report = json.loads(read(out / "kesten_z-2.json"))
    assert report["partial"] is True and report["cap_exceeded"] == moments
    assert "kesten" not in report


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


@pytest.mark.parametrize("label,rmax", [("psl2z1p:2", 16), ("bcp:2", 6)])
def test_ltable_reads_no_schreier_ball(tmp_path, monkeypatch, label, rmax):
    # the rows are the classes of word length <= rmax, as the class search
    # names them; no coset ball is enumerated
    def refused(store, r_max):
        raise AssertionError("ltable enumerated a Schreier ball")

    monkeypatch.setattr(CosetStore, "enumerate_to", refused)
    out = tmp_path / "o"
    assert main(["ltable", "--pair", label, "--rmax", str(rmax),
                 "--out", str(out)]) == EXIT_OK
    slug = label.replace(":", "-")
    rows = json.loads(read(out / f"ltable_{slug}.json"))["classes"]
    assert len(read(out / f"ltable_{slug}.csv").splitlines()) \
        == len(rows) + 1
    if label == "psl2z1p:2":
        assert sorted((int(row["l_word"]), row["L"], row["R"])
                      for row in rows) == [
            (k, n, n) for k, n in enumerate(
                [1] + [3 * 2 ** (2 * k - 1) for k in range(1, rmax + 1)])]
    else:
        store = CosetStore(heckepairs.get_pair(label))
        assert len(rows) == len(store.word_lengths(rmax)) == 36


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
    cfgfile.write_text("rd.s_grid_step=0.3\nseed=9\n")
    out = tmp_path / "o"
    assert main(["growth", "--pair", "z:1", "--rmax", "10",
                 "--config", str(cfgfile), "--set", "rd.stable_slope=0.9",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "growth_z-1.json"))
    assert report["config"]["rd.s_grid_step"] == 0.3
    assert report["config"]["rd.stable_slope"] == 0.9
    assert report["seed"] == 9
    bad = tmp_path / "bad.cfg"
    bad.write_text("no.such.key=1\n")
    assert main(["growth", "--pair", "z:1", "--rmax", "4",
                 "--config", str(bad), "--out", str(out)]) == EXIT_USAGE


def test_key_value_files_skip_blank_and_comment_lines(tmp_path):
    # each commented line would be refused if it were read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a run\n\n  seed = 9 \n#rd.stable_slope=x\n\n")
    spec = tmp_path / "pair.spec"
    spec.write_text("# C6 over C3\nkind=perm\n\nlabel=c6-h3\nn=6\n"
                    "# g_gen=perm 0\ng_gen=perm 1 2 3 4 5 0\n"
                    "h_gen=perm 2 3 4 5 0 1\n\n")
    out = tmp_path / "o"
    assert main(["ltable", "--pair-spec", str(spec), "--config", str(cfg),
                 "--rmax", "6", "--out", str(out)]) == EXIT_OK
    report = json.loads(read(out / "ltable_c6-h3.json"))
    assert report["seed"] == 9
    assert report["pair"]["g_generators"] == ["perm 1 2 3 4 5 0"]
    assert len(report["classes"]) == 2


@pytest.mark.parametrize("name,text,extra,message", [
    ("bad.cfg", "seed=1\nseed 9\n", ["--pair", "z:1", "--config"],
     "bad config line 'seed 9'"),
    ("bad.spec", "kind=zvec\nd 2\n", ["--pair-spec"],
     "bad pair-spec line 'd 2'"),
    (None, None, ["--pair", "z:1", "--set", "seed"],
     "--set needs key=value, got 'seed'")])
def test_lines_without_equals_are_usage_errors(tmp_path, capsys, name, text,
                                               extra, message):
    if name:
        (tmp_path / name).write_text(text)
        extra = extra + [str(tmp_path / name)]
    out = tmp_path / "o"
    assert main(["growth", "--rmax", "3", "--out", str(out)]
                + extra) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert _tree_bytes(out) == {}


@pytest.mark.parametrize("flag,what", [("--config", "config"),
                                       ("--pair-spec", "pair-spec")])
def test_missing_key_value_file_is_a_usage_error(tmp_path, capsys, flag,
                                                 what):
    # exit 2 with a message naming the file, and no --out directory
    missing = tmp_path / "nosuch"
    out = tmp_path / "o"
    extra = ["--pair", "z:1"] if flag == "--config" else []
    assert main(["growth", flag, str(missing), "--rmax", "3",
                 "--out", str(out)] + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot read {what} file {str(missing)!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,what", [("--config", "config"),
                                       ("--pair-spec", "pair-spec")])
def test_key_value_file_not_utf8_is_a_usage_error(tmp_path, capsys, flag,
                                                  what):
    bad = tmp_path / "latin1"
    bad.write_bytes(b"# caf\xe9\nseed=1\n\xff\n")
    out = tmp_path / "o"
    extra = ["--pair", "z:1"] if flag == "--config" else []
    assert main(["growth", flag, str(bad), "--rmax", "3",
                 "--out", str(out)] + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot read {what} file {str(bad)!r}: not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("kind=perm\nn=3\ncolour=red\ng_gen=perm 1 0 2\n",
     "unknown pair-spec key 'colour'"),
    ("kind=perm\ng_gen=perm 1 0 2\n",
     "perm spec needs n and at least one g_gen"),
    ("kind=perm\nn=3\nh_gen=perm 1 0 2\n",
     "perm spec needs n and at least one g_gen"),
    ("kind=matrix\nn=2\n", "unsupported custom pair kind 'matrix'"),
    ("n=3\ng_gen=perm 1 0 2\n", "unsupported custom pair kind None")])
def test_incomplete_pair_specs_are_usage_errors(tmp_path, capsys, text,
                                                message):
    (tmp_path / "pair.spec").write_text(text)
    out = tmp_path / "o"
    assert main(["growth", "--pair-spec", str(tmp_path / "pair.spec"),
                 "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", ["../../../pwned", "a/b", "a\0b",
                                   "a\\b"])
def test_spec_label_with_a_path_separator_is_a_usage_error(tmp_path, capsys,
                                                          label):
    # the label names the artifacts: a separator would put them outside
    # --out or in a new directory under it, and a NUL cannot be a name
    spec = tmp_path / "pair.spec"
    spec.write_text(f"kind=perm\nn=3\nlabel={label}\n"
                    "g_gen=perm 1 0 2\ng_gen=perm 1 2 0\nh_gen=perm 1 0 2\n")
    out = tmp_path / "d" / "p"
    assert main(["growth", "--pair-spec", str(spec), "--rmax", "2",
                 "--out", str(out)]) == EXIT_USAGE
    assert (f"pair-spec label {label!r} holds a path separator or NUL"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["pair.spec"]


def test_failed_artifact_write_is_a_usage_error(tmp_path, capsys):
    # a directory where the csv would go: exit 2 naming the path, and no
    # json after it
    out = tmp_path / "o"
    (out / "growth_z-1.csv").mkdir(parents=True)
    assert main(["growth", "--pair", "z:1", "--rmax", "2",
                 "--out", str(out)]) == EXIT_USAGE
    assert (f"cannot write {out / 'growth_z-1.csv'}: "
            in capsys.readouterr().err)
    assert [p.name for p in out.iterdir()] == ["growth_z-1.csv"]


@pytest.mark.parametrize("extra,spec,message", [
    (["--pair", f"z:{Z_MAX_DIMENSION + 1}"], None,
     f"dimension must be <= {Z_MAX_DIMENSION}"),
    # Z^d is --pair z:d only: a zvec spec is refused at its d line
    (["--pair-spec"], f"kind=zvec\nd={Z_MAX_DIMENSION + 1}\n",
     "unknown pair-spec key 'd'"),
    (["--pair-spec"], "kind=perm\nn=1000000\ng_gen=perm 1 0\n",
     "not a permutation of 0..999999")])
def test_oversized_pairs_are_usage_errors(tmp_path, capsys, extra, spec,
                                          message):
    # refused before the pair allocates its size: exit 2, nothing written
    if spec:
        (tmp_path / "big.spec").write_text(spec)
        extra = extra + [str(tmp_path / "big.spec")]
    out = tmp_path / "o"
    assert main(["growth", "--rmax", "1", "--out", str(out)]
                + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


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
             "--set", "rd.stable_slope=0.5"],
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
    assert first["config"]["rd.stable_slope"] == 0.5
    assert last["config"] == {**first["config"], "rd.stable_slope": 0.1}
    snapshots = [json.loads(read(tmp_path / f"in{i}" / "enumerate_dinf.json"))
                 ["snapshot"] for i in (1, 2)]
    assert snapshots[0] != snapshots[1]


def _loaded_after(code: str) -> set[str]:
    """The names in ``sys.modules`` once a child has run ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys; print(json.dumps(list(sys.modules)))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _submodules(names) -> set[str]:
    return {f"heckepairs.{name}" for name in names}


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import heckepairs")
    assert "heckepairs" in loaded
    assert not {name for name in loaded if name.startswith("heckepairs.")}


def test_cli_import_loads_no_command_module():
    # the commands' modules load when a command body runs
    loaded = _loaded_after("import heckepairs.cli")
    assert "heckepairs.cli" in loaded
    assert not loaded & _submodules(
        ["rd", "growth", "lengths", "algebra", "verify", "oracle"])


def test_rd_profile_loads_neither_verify_nor_oracle(tmp_path):
    loaded = _loaded_after(
        "from heckepairs import cli; "
        "cli.main(['rd-profile', '--pair', 'z:1', '--rmax', '3', "
        f"'--out', {str(tmp_path)!r}])")
    assert "heckepairs.rd" in loaded
    assert not loaded & _submodules(["verify", "oracle"])
    assert list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["rd-profile", "--pair", "z:1", "--rmax", "3"],
    ["kesten", "--pair", "z:1", "--rmax", "3"],
    ["verify"]])
def test_rd_and_verify_commands_leave_lengths_unloaded(tmp_path, argv):
    # their word lengths are read straight from the class search
    loaded = _loaded_after(
        "from heckepairs import cli; "
        f"cli.main({argv + ['--out', str(tmp_path)]!r})")
    assert "heckepairs.algebra" in loaded
    assert "heckepairs.lengths" not in loaded
    assert list(tmp_path.iterdir())


def test_growth_loads_neither_lengths_nor_algebra(tmp_path):
    # the series is read from the class search alone
    loaded = _loaded_after(
        "from heckepairs import cli; "
        "cli.main(['growth', '--pair', 'z:1', '--rmax', '4', "
        f"'--out', {str(tmp_path)!r}])")
    assert "heckepairs.growth" in loaded
    assert not loaded & _submodules(["lengths", "algebra"])
    assert list(tmp_path.iterdir())


def test_exports_are_the_modules_attributes(monkeypatch):
    # each exported name is read from its module on every access, so it
    # is the module's object, a monkeypatch of the module included
    table = heckepairs._EXPORTS
    assert heckepairs.__all__ == list(table)
    assert set(table) <= set(dir(heckepairs))
    for name, module in table.items():
        owner = importlib.import_module(f"heckepairs.{module}")
        assert getattr(heckepairs, name) is getattr(owner, name)
    monkeypatch.setattr(heckepairs.rd, "rd_profile", "patched")
    assert heckepairs.rd_profile == "patched"
    namespace: dict = {}
    exec("from heckepairs import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(table)
    with pytest.raises(AttributeError, match="no_such_name"):
        heckepairs.no_such_name


def test_import_leaves_scipy_unloaded():
    # the power iteration alone loads from scipy, and only its compiled
    # sparse kernels: importing the package loads nothing of scipy
    assert "scipy" not in _loaded_after("import heckepairs, heckepairs.cli")


# runs rd-profile and kesten with scipy.sparse imported before them
# ("package-first") or not, then imports scipy.sparse, and prints which
# scipy modules the runs left loaded and whether the package's kernels
# are the very ones the power iteration ran
_KERNELS_CHILD = """
import json, sys
from heckepairs import cli
order, out = sys.argv[1:]
if order == "package-first":
    import scipy.sparse
runs = [["rd-profile", "--pair", "z:1", "--rmax", "4"],
        ["kesten", "--pair", "z:1", "--rmax", "3"]]
codes = [cli.main(argv + ["--out", out]) for argv in runs]
names = ["scipy", "scipy.sparse", "scipy.sparse._sparsetools"]
loaded = [name in sys.modules for name in names]
used = sys.modules["scipy.sparse._sparsetools"]
import scipy.sparse
from scipy.sparse import _sparsetools
print(json.dumps({"codes": codes, "loaded": loaded,
                  "same": [_sparsetools is used,
                           _sparsetools.csr_matvec is used.csr_matvec,
                           _sparsetools.csc_matvec is used.csc_matvec]}))
"""


@pytest.mark.parametrize("order", ["kernels-first", "package-first"])
def test_power_iteration_loads_the_kernels_alone(tmp_path, order):
    # rd-profile and kesten load scipy's compiled sparse kernels without
    # running scipy's or scipy.sparse's __init__, and an import of
    # scipy.sparse before or after them shares the one module object
    proc = subprocess.run(
        [sys.executable, "-c", _KERNELS_CHILD, order, str(tmp_path)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [EXIT_OK, EXIT_OK]
    package = order == "package-first"
    assert got["loaded"] == [package, package, True]
    assert got["same"] == [True, True, True]


def test_numpy_loaded_by_the_operator_layer_only(tmp_path):
    # numpy serves the truncated operators alone: importing the package
    # and a growth run leave it unloaded, and growth loads neither the
    # operator layer nor verify's checks
    assert "numpy" not in _loaded_after("import heckepairs, heckepairs.cli")
    loaded = _loaded_after(
        "import heckepairs.cli; "
        "heckepairs.cli.main(['growth', '--pair', 'psl2z1p:2', "
        f"'--rmax', '6', '--out', {str(tmp_path)!r}])")
    assert "heckepairs.growth" in loaded
    assert not loaded & ({"numpy"} | _submodules(["rd", "verify", "oracle"]))
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
