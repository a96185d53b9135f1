"""Exception types shared across the package."""


class HeckeError(Exception):
    """Base class for all errors raised by this package."""


class MixedKinds(HeckeError):
    """Two elements from different group instances were combined."""


class ParseError(HeckeError):
    """Element text does not match the grammar.

    ``position`` is the index of the offending whitespace-separated token.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (token {position})")
        self.position = position


class DomainError(HeckeError):
    """Element is well-formed but outside the instance's domain."""


class StoreMismatch(HeckeError):
    """Two Hecke elements, or an element and a store, live over different
    coset stores."""


class CapExceeded(HeckeError):
    """An enumeration grew past ``max_cosets``, or a class table of
    truncated operators past its share of it.

    What a layer finished before the cap stays readable on its store: the
    class search, for one, records a depth only once it is complete.  The
    message names the cap that was hit.
    """


class OrbitCapExceeded(CapExceeded):
    """A double-coset orbit grew past ``max_orbit``.

    Either the pair is not a Hecke pair (some L or R is infinite) or the
    cap is too small; callers turn this into an 'inconclusive' verdict.
    """


class NotFinitelyGenerated(HeckeError):
    """The operation needs a finite generating set for the pair."""


class NonBiInvariantResult(HeckeError):
    """Internal consistency failure of the Hecke algebra: the triangle
    identity L(e) c_e = L(d) m_e leaves a fractional class size (in the
    class search) or structure constant (c_e = L(d1) m_e / L(e), in
    ``structure_constants``), or a product breaks the degree identity
    sum_d c_d R(d) = R(d1) R(d2).  A moment a_n = ||f^{*n}||^2 is a sum
    of squares, so it needs no check of its own.  Must never fire;
    indicates a wrong coset or class key, class size or count."""


class LengthUndefinedOnSupport(HeckeError):
    """A weighted norm was requested with a length function missing values
    on the element's support."""


class NotRelativelyUnimodular(HeckeError):
    """The characteristic length is only defined for relatively
    unimodular pairs (use the L*R variant to bypass)."""


class InfiniteH(HeckeError):
    """Averaging over H requires H to be finite."""


class BallIncomplete(HeckeError):
    """The store's enumerated ball does not cover the requested radius."""


class SubsetNotSubgroup(HeckeError):
    """The candidate subgroup subset is not closed under the group law."""


class NoStableFit(HeckeError):
    """No exponent in the grid gave a stable weighted-norm ratio."""
