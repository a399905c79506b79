"""Exception hierarchy.

Many of these are mathematical verdicts rather than bugs: ``NotInvertible``
raised while inverting a canonical map *is* the statement "this extension is
not Galois".  Callers that want report-style output catch ``TorsorKitError``
and record the verdict.
"""

from __future__ import annotations


class TorsorKitError(Exception):
    pass


class ScalarParseError(TorsorKitError):
    pass


class NotPrime(TorsorKitError):
    pass


class ShapeMismatch(TorsorKitError):
    pass


class AmbientMismatch(TorsorKitError):
    pass


class NotInvertible(TorsorKitError):
    """Carries rank data; for square maps also a kernel witness vector."""

    def __init__(self, msg, rank=None, kernel_vector=None):
        super().__init__(msg)
        self.rank = rank
        self.kernel_vector = kernel_vector


class NotAssociative(TorsorKitError):
    def __init__(self, i, j, k):
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")
        self.triple = (i, j, k)


class NotUnital(TorsorKitError):
    def __init__(self, i, side="both"):
        super().__init__(f"unit law fails on basis vector {i} ({side})")
        self.index = i
        self.side = side


class NotHomomorphism(TorsorKitError):
    pass


class ActionMismatch(TorsorKitError):
    pass


class NotWellDefined(TorsorKitError):
    """A map on representatives does not kill the balancing relations."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotFree(TorsorKitError):
    pass


class NotCoassociative(TorsorKitError):
    pass


class NotCounital(TorsorKitError):
    pass


class NotBilinear(TorsorKitError):
    pass


class NotGroupLike(TorsorKitError):
    pass


class NotColinear(TorsorKitError):
    pass


class NotCounitPreserving(TorsorKitError):
    pass


class CoproductDoesNotCorestrict(TorsorKitError):
    pass


class CounitNotInImageOfUnit(TorsorKitError):
    pass


class AlphaNotInjective(TorsorKitError):
    pass


class BetaNotInjective(TorsorKitError):
    pass


class NotGalois(TorsorKitError):
    def __init__(self, msg, rank_deficit=None):
        super().__init__(msg)
        self.rank_deficit = rank_deficit


class CharacterizationsDisagree(TorsorKitError):
    def __init__(self, msg, dims=None):
        super().__init__(msg)
        self.dims = dims


class IsoFailure(TorsorKitError):
    pass


class NotAMorphism(TorsorKitError):
    pass


class ClosureFailure(TorsorKitError):
    pass


class AxiomFailure(TorsorKitError):
    pass


class NotTimesAHopf(TorsorKitError):
    def __init__(self, msg, rank_deficit=None):
        super().__init__(msg)
        self.rank_deficit = rank_deficit


class Disagreement(TorsorKitError):
    pass


class TakeuchiViolation(TorsorKitError):
    pass


class WitnessNotIso(TorsorKitError):
    pass


class NotSubcomoduleCompatible(TorsorKitError):
    pass


class CoinvariantMismatch(TorsorKitError):
    pass


class NotConvolutionInverse(TorsorKitError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class MembershipFailure(TorsorKitError):
    pass


class RangeFailure(TorsorKitError):
    pass


class NotFlat(TorsorKitError):
    pass


class UnknownFixture(TorsorKitError):
    pass


class DocumentError(TorsorKitError):
    """Bundle document parse failure; ``pointer`` is a JSON-pointer string."""

    def __init__(self, msg, pointer=""):
        super().__init__(f"{pointer or '/'}: {msg}")
        self.pointer = pointer
