"""The rows of the rd.* and kesten.* keys and the one rule that sets and
checks every config value, kept out of ``rd`` so the CLI need not load it.
"""

import math
import operator

from .errors import HeckeError

# the largest --rmax and rd.pad: past it a saturated store's ball ends, the
# growth series and rd-profile's records would outgrow memory, not the caps
MAX_RADIUS = 10_000

# one row per key: its default, then its domain as (comparison, bound)
# pairs.  A value takes its default's type, which must hold it exactly; a
# bounded value must be finite and on the right side of each bound, and
# every float value must be finite
RD_KEYS = {
    "rd.pad": (2, (">=", 0), ("<=", MAX_RADIUS)),  # beyond the support radius
    # picks each truncation radius by dim * sum R(d), unchanged so that
    # reports stay the same; the build costs one class table per store,
    # quadratic in the ball, with most entries copied by generator moves
    "rd.max_matrix_cost": (3_000_000, (">=", 1)),
    # moment order mixed into the bound; z:2 takes about 9 s at 16
    "rd.moment_n": (1, (">=", 0), ("<=", 16)),
    "rd.n_random": (2, (">=", 0), ("<=", 1000)),  # random f >= 0 per r
    # the random f's coefficient range; from 10^155 the norms overflow
    "rd.coeff_max": (9, (">=", 1), ("<=", 10 ** 6)),
    "rd.s_grid_max": (3.0, (">=", 0)),  # weighted-fit exponent grid
    "rd.s_grid_step": (0.25, (">", 0)),
    "rd.stable_slope": (0.1,),          # max tail slope of a stable ratio
    "rd.tail_fraction": (0.5, (">", 0), ("<=", 1)),
    "rd.tol": (1e-8, (">", 0)),         # power iteration relative tolerance
    "rd.max_iter": (20000, (">=", 1)),
    # moments in the Kesten diagnostic; z:2 takes about 1 s at 64
    "kesten.n": (8, (">=", 0), ("<=", 64)),
    "kesten.trunc_radius": (6, (">=", 0)),
    "kesten.amenable_min": (0.99,),     # report hints only, flagged
    "kesten.nonamenable_max": (0.95,),
}
RD_DEFAULTS = {key: row[0] for key, row in RD_KEYS.items()}
S_GRID_MAX_POINTS = 10_000     # a bound on the grid's memory, not a key
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def set_values(cfg: dict, table: dict, items, origin: str) -> None:
    """Set each (key, value) of ``items`` in ``cfg`` as the type of the
    key's default in ``table``: a string is parsed as that type, and any
    other value must be exactly representable in it (3.0 for an int key,
    never 1.9).  An unknown key or a refused value is a HeckeError naming
    the key; NaN passes, for ``check_domains`` to refuse."""
    for key, value in items:
        if key not in table:
            raise HeckeError(f"unknown config key {key!r} ({origin})")
        kind = type(table[key][0])
        try:
            out = kind(value)
            exact = isinstance(value, str) or out == value or out != out
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise HeckeError(f"config key {key!r} needs {kind.__name__}, "
                             f"got {value!r}")
        cfg[key] = out


def check_domains(cfg: dict, table: dict) -> None:
    """Raise HeckeError naming the first key of ``table`` whose value is
    off a bound of its row or a float that is not finite, then naming
    rd.s_grid_max and rd.s_grid_step when their grid would hold more than
    S_GRID_MAX_POINTS points, counted before any is made, then naming the
    two kesten hint thresholds when they overlap.  ``table`` holds the
    rows of RD_KEYS.  Integers are compared exactly, so one too large for
    a float is checked like any other."""
    for key, (_, *bounds) in table.items():
        value = cfg[key]
        finite = not isinstance(value, float) or math.isfinite(value)
        for op, bound in bounds:
            if not (finite and _COMPARE[op](value, bound)):
                raise HeckeError(
                    f"{key} must be finite and {op} {bound}, got {value}")
        if not finite:
            raise HeckeError(f"{key} must be finite, got {value}")
    s_max, step = cfg["rd.s_grid_max"], cfg["rd.s_grid_step"]
    if (s_max + 1e-9) / step >= S_GRID_MAX_POINTS:
        raise HeckeError(
            f"rd.s_grid_max={s_max} and rd.s_grid_step={step} give a "
            f"weighted-norm grid of more than {S_GRID_MAX_POINTS} points")
    low, high = cfg["kesten.nonamenable_max"], cfg["kesten.amenable_min"]
    if low > high:
        raise HeckeError(f"kesten.nonamenable_max={low} exceeds "
                         f"kesten.amenable_min={high}")
