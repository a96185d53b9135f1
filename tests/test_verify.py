"""Fault injection into ``hecke verify``: each suite reports a fault it is
shown, under its own name and with its own message, and the command exits
1 on it."""

import json
from fractions import Fraction as Q

import pytest

from heckepairs import algebra, verify
from heckepairs.cli import EXIT_INVARIANT, main
from heckepairs.cosets import CosetStore
from heckepairs.errors import HeckeError


def _patch_method(monkeypatch, name, wrong):
    """Replace CosetStore.<name> by ``wrong(real, store, *args)``."""
    real = getattr(CosetStore, name)
    monkeypatch.setattr(CosetStore, name,
                        lambda store, *args: wrong(real, store, *args))


def test_coset_invariants_name_a_size_that_is_not_the_inverse_walk(
        monkeypatch):
    _patch_method(monkeypatch, "class_R",
                  lambda real, store, d: real(store, d) + (d == 1))
    assert verify._coset_invariant_failure("z:2") == "R != L(inv) on class 1"


@pytest.mark.parametrize("members,detail", [
    (lambda d: (0,), "classes overlap"),
    (lambda d: (), "ball not covered by classes")])
def test_coset_invariants_name_a_broken_partition(monkeypatch, members,
                                                  detail):
    _patch_method(monkeypatch, "class_members",
                  lambda real, store, d: members(d))
    assert verify._coset_invariant_failure("z:1") == detail


def test_coset_invariants_name_duplicate_cosets(monkeypatch):
    monkeypatch.setattr(verify, "check_interning_soundness",
                        lambda store, limit: [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert (verify._coset_invariant_failure("z:1")
            == "duplicate cosets [(0, 1), (0, 2), (1, 2)]")


def test_coset_invariants_name_a_delta_that_is_not_multiplicative(
        monkeypatch):
    monkeypatch.setattr(verify, "relative_modular", lambda pair, g: Q(2))
    assert (verify._coset_invariant_failure("bcp:2")
            == "delta not multiplicative")


def test_learned_sizes_name_the_classes_a_walk_disagrees_with(monkeypatch):
    monkeypatch.setattr(verify, "left_L_count",
                        lambda pair, g, max_orbit: [g, g, g])
    results = verify._check_learned_sizes()
    assert [r.name for r in results] == [
        f"learned-class-sizes[{label}]" for label in verify.LAW_PAIRS]
    assert not any(r.ok for r in results)
    assert all("; walks or orbits differ on classes [" in r.detail
               for r in results)


def test_structure_constant_arbiters_name_a_miscounted_pair(monkeypatch):
    # a count scaled by d1 + 1 breaks both the mirror identity and the
    # agreement with structure_constants
    real = algebra.direct_count
    monkeypatch.setattr(verify, "direct_count", lambda store, d1, d2: {
        e: c * (d1 + 1) for e, c in real(store, d1, d2).items()})
    for results in (verify._check_structure_constant_mirror(),
                    verify._check_structure_constant_count()):
        assert results and not any(r.ok for r in results)
        assert all("; counts differ on [(" in r.detail for r in results)


def test_a_suite_cut_short_by_an_error_fails_under_its_name(monkeypatch):
    def refuse(f, n):
        raise HeckeError("moments refused")

    monkeypatch.setattr(verify, "power_moments", refuse)
    results = verify.run_verification(include_golden=False)
    failed = [(r.name, r.detail) for r in results if not r.ok]
    assert failed == [("spectral-examples", "HeckeError: moments refused")]


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


# the oracle and the S3 identity see the missing class; the algebra laws
# and the count meet the degree identity the engine enforces, which cuts
# each suite short under its own name
CAUGHT = {"oracle-equivalence[s3-h12]", "oracle-equivalence[s4-h12]",
          "oracle-equivalence[s4-h12-34]", "s3-structure-identity",
          "algebra-laws", "structure-constants-count"}


def test_verification_names_the_suites_that_catch_a_dropped_class(
        monkeypatch):
    _drop_a_support_class(monkeypatch)
    results = verify.run_verification(include_golden=False)
    failed = {r.name: r.detail for r in results if not r.ok}
    assert set(failed) == CAUGHT
    assert failed["structure-constants-count"].startswith(
        "NonBiInvariantResult: product T[")
    assert "structure constants differ on (1,1): " in failed[
        "oracle-equivalence[s3-h12]"]


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
