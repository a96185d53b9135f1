"""Exact computational toolkit for finitely generated discrete Hecke pairs.

Enumeration of coset and double-coset structure, exact rational arithmetic
in the Hecke algebra, length and growth functions, and operator-norm lower
bounds for rapid-decay and amenability diagnostics.
"""

from .algebra import (HeckeElement, NormReport, basis_element, convolve,
                      identity_element, involution, norms, power_moments,
                      structure_constants)
from .cosets import (Caps, CosetStore, enumerate_ball, left_L_count,
                     relative_modular, unimodularity_check, verify_hecke)
from .growth import GrowthSeries, GrowthVerdict, classify_growth, growth_series
from .groups import HeckePair, catalog_labels, get_pair, load_pair_spec
from .lengths import (AveragedLength, LengthFunction, characteristic_length,
                      check_length_axioms, dominance_fit, indicator_length,
                      pseudometric_checks, word_length)
from .oracle import finite_group_oracle, oracle_matches_engine
from .rd import (KestenReport, RdProfile, kesten_diagnostic, operator_matrix,
                 rd_profile, rd_weighted_fit, spectral_lower_bound,
                 truncated_norm)

__version__ = "0.1.0"
