"""Fault injection into ``hecke verify``: each check reports a fault it is
shown, under its own name and with its own message, and the command exits
1 on it."""

import json
from fractions import Fraction as Q

import pytest

from heckepairs import algebra, verify
from heckepairs.cli import EXIT_INVARIANT, EXIT_OK, main
from heckepairs.cosets import CosetStore
from heckepairs.errors import HeckeError


def _patch_method(monkeypatch, name, wrong):
    """Replace CosetStore.<name> by ``wrong(real, store, *args)``."""
    real = getattr(CosetStore, name)
    monkeypatch.setattr(CosetStore, name,
                        lambda store, *args: wrong(real, store, *args))


def _row(name):
    """The pairs and the check of the row ``name`` of ``verify.CHECKS``."""
    (row,) = [(pairs, check) for n, pairs, check in verify.CHECKS
              if n == name]
    return row


#: the 42 checks of a passing ``hecke verify``, in report order
PASSING = [
    *(f"oracle-equivalence[{p}]" for p in ("s3-h12", "s4-h12", "s4-h12-34")),
    "s3-structure-identity",
    *(f"golden[{p}]" for p in (
        "z:1", "z:2", "dinf", "s3-h12", "s4-h12", "s4-h12-34", "bcp:2",
        "bcp:3", "bcp:5", "psl2z1p:2", "sl2z1p:2")),
    *(f"{check}[{p}]"
      for check in ("algebra-laws", "coset-invariants", "learned-class-sizes")
      for p in ("z:1", "z:2", "dinf", "s3-h12", "bcp:2", "psl2z1p:2")),
    *(f"structure-constants-mirror[{p}]" for p in ("bcp:2", "psl2z1p:2")),
    *(f"structure-constants-count[{p}]"
      for p in ("z:2", "bcp:2", "s4-h12", "psl2z1p:2")),
    "z-moments", "z-projection-monotone", "z-l1-bound",
]

NO_GOLDEN = [name for name in PASSING if not name.startswith("golden[")]


def test_the_table_lists_the_checks_of_a_passing_verify(tmp_path, capsys):
    table = [f"{name}[{label}]" if pairs else name
             for name, pairs, _ in verify.CHECKS for label in pairs or [""]]
    assert table == PASSING and len(PASSING) == 42
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        *(f"PASS {name}" for name in PASSING), "42/42 checks passed"]


def test_coset_invariants_name_a_size_that_is_not_the_inverse_walk(
        monkeypatch):
    _patch_method(monkeypatch, "class_R",
                  lambda real, store, d: real(store, d) + (d == 1))
    assert _row("coset-invariants")[1]("z:2") == (
        False, "R != L(inv) on class 1")


@pytest.mark.parametrize("members,detail", [
    (lambda d: (0,), "classes overlap"),
    (lambda d: (), "ball not covered by classes")])
def test_coset_invariants_name_a_broken_partition(monkeypatch, members,
                                                  detail):
    _patch_method(monkeypatch, "class_members",
                  lambda real, store, d: members(d))
    assert _row("coset-invariants")[1]("z:1") == (False, detail)


def test_coset_invariants_name_duplicate_cosets(monkeypatch):
    monkeypatch.setattr(verify, "check_interning_soundness",
                        lambda store, limit: [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert _row("coset-invariants")[1]("z:1") == (
        False, "duplicate cosets [(0, 1), (0, 2), (1, 2)]")


def test_coset_invariants_name_a_delta_that_is_not_multiplicative(
        monkeypatch):
    monkeypatch.setattr(verify, "relative_modular", lambda pair, g: Q(2))
    assert _row("coset-invariants")[1]("bcp:2") == (
        False, "delta not multiplicative")


def test_learned_sizes_name_the_classes_a_walk_disagrees_with(monkeypatch):
    monkeypatch.setattr(verify, "left_L_count",
                        lambda pair, g, max_orbit: [g, g, g])
    pairs, check = _row("learned-class-sizes")
    assert pairs == verify.LAW_PAIRS
    results = [check(label) for label in pairs]
    assert not any(ok for ok, _ in results)
    assert all("; walks or orbits differ on classes [" in detail
               for _, detail in results)


def test_structure_constant_arbiters_name_a_miscounted_pair(monkeypatch):
    # a count scaled by d1 + 1 breaks both the mirror identity and the
    # agreement with structure_constants
    real = algebra.direct_count
    monkeypatch.setattr(verify, "direct_count", lambda store, d1, d2: {
        e: c * (d1 + 1) for e, c in real(store, d1, d2).items()})
    for pairs, check in (_row("structure-constants-mirror"),
                         _row("structure-constants-count")):
        results = [check(label) for label in pairs]
        assert results and not any(ok for ok, _ in results)
        assert all("; counts differ on [(" in detail
                   for _, detail in results)


def test_a_suite_cut_short_by_an_error_fails_under_its_name(monkeypatch):
    def refuse(f, n):
        raise HeckeError("moments refused")

    monkeypatch.setattr(verify, "power_moments", refuse)
    results = verify.run_verification(include_golden=False)
    failed = [(r.name, r.detail) for r in results if not r.ok]
    assert failed == [("z-moments", "HeckeError: moments refused")]


def _drop_a_support_class(monkeypatch):
    """structure_constants, in the algebra and in verify, drops the last
    class of every product with several, and caches what it returns."""
    real = algebra.structure_constants

    def dropped(store, d1, d2):
        out = dict(real(store, d1, d2))
        if len(out) > 1:
            out.popitem()
        store.sc_cache[(d1, d2)] = out
        return out

    monkeypatch.setattr(algebra, "structure_constants", dropped)
    monkeypatch.setattr(verify, "structure_constants", dropped)


# the oracle, the S3 identity and the count on s4-h12 see the missing
# class; on bcp:2 and psl2z1p:2 the algebra laws and the count meet the
# degree identity the engine enforces, which fails that check alone
CAUGHT = {"oracle-equivalence[s3-h12]", "oracle-equivalence[s4-h12]",
          "oracle-equivalence[s4-h12-34]", "s3-structure-identity",
          "algebra-laws[bcp:2]", "algebra-laws[psl2z1p:2]",
          "structure-constants-count[bcp:2]",
          "structure-constants-count[s4-h12]",
          "structure-constants-count[psl2z1p:2]"}


def test_verification_names_the_suites_that_catch_a_dropped_class(
        monkeypatch):
    _drop_a_support_class(monkeypatch)
    results = verify.run_verification(include_golden=False)
    failed = {r.name: r.detail for r in results if not r.ok}
    assert set(failed) == CAUGHT
    for label in ("bcp:2", "psl2z1p:2"):
        assert failed[f"structure-constants-count[{label}]"].startswith(
            "NonBiInvariantResult: product T[")
    assert failed["structure-constants-count[s4-h12]"] == (
        "16 pairs, 25 support classes; "
        "counts differ on [(1, 1), (1, 2), (1, 3)]")
    assert "structure constants differ on (1,1): " in failed[
        "oracle-equivalence[s3-h12]"]


def test_a_dropped_class_keeps_every_check_of_a_passing_run(monkeypatch):
    _drop_a_support_class(monkeypatch)
    results = verify.run_verification(include_golden=False)
    assert [r.name for r in results] == NO_GOLDEN and len(results) == 31


def test_verify_exits_1_on_a_dropped_class(monkeypatch, tmp_path, capsys):
    _drop_a_support_class(monkeypatch)
    out = tmp_path / "v"
    assert main(["verify", "--no-golden", "--out", str(out)]) \
        == EXIT_INVARIANT
    printed = capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text())
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert failed == CAUGHT and report["failures"] == len(failed)
    assert all(f"FAIL {name}" in printed for name in failed)
