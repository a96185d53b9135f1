"""Exact computational toolkit for finitely generated discrete Hecke pairs.

Enumeration of coset and double-coset structure, exact rational arithmetic
in the Hecke algebra, length and growth functions, and operator-norm lower
bounds for rapid-decay and amenability diagnostics.

Each exported name is read from its module on each use (PEP 562): ``import
heckepairs`` loads no submodule, and the package keeps no copy of a name.
"""

import importlib

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "algebra": "HeckeElement NormReport basis_element convolve involution"
               " identity_element norms power_moments structure_constants",
    "cosets": "Caps CosetStore enumerate_ball left_L_count relative_modular"
              " unimodularity_check",
    "growth": "GrowthSeries GrowthVerdict classify_growth growth_series",
    "groups": "HeckePair catalog_labels get_pair load_pair_spec",
    "lengths": "AveragedLength LengthFunction characteristic_length"
               " check_length_axioms dominance_fit indicator_length"
               " word_length",
    "oracle": "finite_group_oracle oracle_matches_engine",
    "rd": "KestenReport RdProfile kesten_diagnostic operator_matrix rd_profile"
          " rd_weighted_fit spectral_lower_bound truncated_norm",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
