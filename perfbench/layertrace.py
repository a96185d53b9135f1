"""Layer tracing from outside the program.

``Tracer.install`` replaces functions of ``heckepairs`` with wrappers, at
every name a call goes through: a module function is replaced in every
``heckepairs`` module that binds it (``heckepairs.cli.rd_profile``,
``heckepairs.lengths.structure_constants``, the package's re-exports), and a
method on its class, so every instance (every pair, every store) sees it.
``uninstall`` puts the originals back.

Coarse layer calls record spans (name, start, end, parent) kept in memory;
a span's self time is its duration minus the time its child spans cover.
Hot calls (group multiplication, fingerprints, interning) only count, since a
span per call would cost more than the call.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

from heckepairs import algebra, cli, cosets, groups, growth, lengths, rd

# (owner, attribute, span name); several functions may share a span name
SPANS = (
    (cosets.CosetStore, "enumerate_to", "cosets.enumerate"),
    (cosets.CosetStore, "_compute_orbit", "cosets.orbit"),
    (cosets, "left_L_count", "cosets.left_L"),
    (algebra, "structure_constants", "algebra.structure_constants"),
    (algebra, "convolve", "algebra.convolve"),
    (algebra, "power_moments", "algebra.power_moments"),
    (lengths, "word_length", "lengths.word_length"),
    (growth, "growth_series", "growth.series"),
    (growth, "classify_growth", "growth.series"),
    (rd, "rd_profile", "rd.profile"),
    (rd, "kesten_diagnostic", "rd.profile"),
    (rd, "operator_matrix", "rd.operator_matrix"),
    (rd, "truncated_norm", "rd.truncated_norm"),
    (algebra, "norms", "rd.norms"),            # the weighted norms rd takes
    (rd, "spectral_lower_bound", "rd.spectral_lower_bound"),
    (cli, "write_json", "cli.write"),
    (cli, "write_csv", "cli.write"),
)

# pair methods counted on every class of the pair hierarchy that defines them
PAIR_COUNTS = (
    ("mul", "groups.mul_calls"),
    ("same_right_coset", "groups.same_right_coset_calls"),
    ("coset_fingerprint", "groups.fingerprint_calls"),
)

COUNTERS = (
    "groups.mul_calls", "groups.same_right_coset_calls",
    "groups.fingerprint_calls", "cosets.intern_calls", "cosets.interned",
    "cosets.orbits", "algebra.sc_calls", "algebra.sc_computed",
    "algebra.sc_member_products", "rd.operator_dim", "rd.operator_nnz",
    "cli.bytes_written",
)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1)
        self.child_s: list = []      # per span: time covered by its children
        self.counts = Counter()
        self.max_R = 0
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, child_s, stack = self.spans, self.child_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child_s.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if parent >= 0:
                    child_s[parent] += t1 - t0
            if after:
                after(token, result, *args, **kwargs)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _intern(self, fn):
        counts = self.counts

        def wrapper(store, g, insert=True):
            n = len(store.reps)
            counts["cosets.intern_calls"] += 1
            cid = fn(store, g, insert)
            counts["cosets.interned"] += len(store.reps) - n
            return cid

        return wrapper

    # -- hooks that read what a call did -------------------------------------

    def _orbit_done(self, _, dcid, store, start):
        self.counts["cosets.orbits"] += 1
        self.max_R = max(self.max_R, store.dcs[dcid].R)

    def _sc_before(self, store, d1, d2):
        return (d1, d2) not in store.sc_cache

    def _sc_done(self, computed, _, store, d1, d2):
        self.counts["algebra.sc_calls"] += 1
        if computed:
            self.counts["algebra.sc_computed"] += 1
            self.counts["algebra.sc_member_products"] += (
                store.dcs[d1].R * store.dcs[d2].R)

    def _operator_done(self, _, op, *args, **kwargs):
        self.counts["rd.operator_dim"] += op.dim
        self.counts["rd.operator_nnz"] += sum(len(col) for col in op.cols)

    def _write_done(self, _, __, path, *args, **kwargs):
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "heckepairs" and not name.startswith("heckepairs."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        hooks = {
            "_compute_orbit": (None, self._orbit_done),
            "structure_constants": (self._sc_before, self._sc_done),
            "operator_matrix": (None, self._operator_done),
            "write_json": (None, self._write_done),
            "write_csv": (None, self._write_done),
        }
        for owner, attr, name in SPANS:
            before, after = hooks.get(attr, (None, None))
            self._replace(owner, attr, self._span(
                name, getattr(owner, attr), before, after))
        self._replace(cosets.CosetStore, "_intern",
                      self._intern(cosets.CosetStore._intern))
        for cls in _subclasses(groups.HeckePair):
            for attr, key in PAIR_COUNTS:
                if attr in vars(cls):
                    self._replace(cls, attr, self._count(key, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def mark(self) -> tuple:
        """A point to measure a round from; restarts the largest-orbit
        count."""
        self.max_R = 0
        return len(self.spans), Counter(self.counts)

    def metrics_since(self, mark: tuple) -> dict:
        """Per-layer metrics of the work done since ``mark``: self time per
        span name (``<name>_s``) and the counters."""
        first, counts_then = mark
        self_s = Counter()
        for (name, t0, t1, _), covered in zip(self.spans[first:],
                                              self.child_s[first:]):
            self_s[f"{name}_s"] += (t1 - t0) - covered
        counts = Counter(self.counts)
        counts.subtract(counts_then)
        out = {f"{name}_s": float(self_s[f"{name}_s"])
               for name in sorted({s[2] for s in SPANS})}
        out.update({key: counts[key] for key in COUNTERS})
        calls = counts["cosets.intern_calls"]
        out["cosets.intern_yield"] = (counts["cosets.interned"] / calls
                                      if calls else 0.0)
        out["cosets.max_R"] = self.max_R
        return out

    def write(self, path: str) -> None:
        """Write the spans out: one [name, start, end, parent] row each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
