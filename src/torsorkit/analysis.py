"""Bundle-level orchestration: run pipelines, collect one report.

Each theorem-level check is three-valued: if the freeness certificates for
the pre-torsor (the sufficient condition standing in for faithful flatness)
are missing, conclusions that still verify are reported as
``hypothesis-uncertified`` instead of ``pass``.  Mathematical verdict
exceptions (a non-invertible canonical map, a product that leaves its
kernel) are caught and recorded as failures with their message as witness.
"""

from __future__ import annotations

from .bialgebroid import (
    bialgebroid_from_torsor,
    can_factorisation,
    comodule_actions,
    diagonal_coinvariants,
    lemma55_check,
    monoidal_witness,
    recovered_structure,
    theta,
)
from .coring import Comodule
from .diffcalc import bimodule_connection, build_calculus, connections
from .errors import TorsorKitError
from .pretorsor import (
    PreTorsorBundle,
    TorsorBundle,
    build_corings,
    entwining,
    equivalence_witness,
    freeness_certificates,
    galois,
    structure_isos,
    tbar,
    validate_pretorsor,
    validate_torsor,
)
from .report import Report


class BundleAnalysis:
    """Lazy per-bundle pipeline whose stages are memoised on the bundle,
    so every analysis of one bundle shares them."""

    def __init__(self, bundle: PreTorsorBundle):
        self.bundle = bundle

    def _get(self, key, build):
        return self.bundle._memo(key, build)

    @property
    def certified(self):
        return self._get("certs", lambda: freeness_certificates(self.bundle))[1]

    @property
    def pair(self):
        return self._get("pair", lambda: build_corings(self.bundle))

    @property
    def galois_right(self):
        return self._get("gr", lambda: galois(self.bundle, self.pair, "right"))

    @property
    def galois_left(self):
        return self._get("gl", lambda: galois(self.bundle, self.pair, "left"))

    @property
    def ent_right(self):
        return self._get("er", lambda: entwining(self.bundle, self.pair, "right"))

    @property
    def ent_left(self):
        return self._get("el", lambda: entwining(self.bundle, self.pair, "left"))

    @property
    def tbar(self):
        return self._get("tbar", lambda: tbar(self.bundle, self.pair,
                                              self.ent_right, self.ent_left))

    @property
    def isos(self):
        return self._get("isos", lambda: structure_isos(
            self.bundle, self.pair, self.tbar, self.ent_right, self.ent_left,
            self.galois_right, self.galois_left, certified=self.certified))

    @property
    def bialgebroids(self):
        return self._get("bgd", lambda: bialgebroid_from_torsor(self.bundle, self.pair))

    @property
    def theta_right(self):
        return self._get("thR", lambda: theta(self.bialgebroids[0]))

    @property
    def theta_left(self):
        return self._get("thL", lambda: theta(self.bialgebroids[1]))

    @property
    def creg(self):
        """C as a left comodule over itself."""
        C = self.pair.C
        return self._get("creg", lambda: Comodule(C, C.carrier, "left", C.delta, "C"))

    def regular_comodule(self):
        """``creg`` with the base action induced by the right bialgebroid."""
        return self._get("creg-actions",
                         lambda: comodule_actions(self.creg, self.bialgebroids[0])[0])


def validate_report(bundle: PreTorsorBundle) -> Report:
    rep = validate_pretorsor(bundle)
    if isinstance(bundle, TorsorBundle):
        rep.extend(validate_torsor(bundle))
    return rep


def build_report(an: BundleAnalysis) -> Report:
    """Corings, Galois, entwinings, the coinvariant bicomodule, isos."""
    b = an.bundle
    rep = Report(f"{b.name}:build")
    cert = an.certified
    rep.add("hyp.freeness", "3.1(ff)", True, certified=cert)
    try:
        pair = an.pair
        rep.add("thm3.4.corings", "3.4", True,
                dims={"C": pair.C.dim, "D": pair.D.dim}, certified=cert)
    except TorsorKitError as exc:
        rep.add("thm3.4.corings", "3.4", False, witness=str(exc))
        return rep
    for side, prop in (("right", "galois_right"), ("left", "galois_left")):
        try:
            g = getattr(an, prop)
            rep.add(f"thm3.4.galois-{side}", "3.4", True,
                    dims={"can": g.can.domain.dim}, certified=cert)
        except TorsorKitError as exc:
            rep.add(f"thm3.4.galois-{side}", "3.4", False, witness=str(exc))
    for side, prop in (("right", "ent_right"), ("left", "ent_left")):
        try:
            e = getattr(an, prop)
            rep.extend(e.report)
            rep.add(f"entw.{side}.invertible", "4.7", True,
                    witness=None if e.invertible else "not invertible",
                    certified=cert)
        except TorsorKitError as exc:
            rep.add(f"entw.{side}", "4", False, witness=str(exc))
    # the Lemma 4.7 implication: with the carrier free as a right module
    # over the second base, invertibility transfers between the entwinings
    try:
        from .algebra import certify_free
        from .errors import NotFree
        try:
            certify_free(b.T_AB, "right")
            right_b_free = True
        except NotFree:
            right_b_free = False
        rep.add("hyp.freeness-right-B", "4.7", True, certified=right_b_free)
        if an.ent_right.invertible and right_b_free:
            rep.add("lem4.7.implication", "4.7", an.ent_left.invertible)
    except TorsorKitError:
        pass
    try:
        tb = an.tbar
        rep.add("prop4.1.tbar", "4.1", True, dims={"Tbar": tb.dim},
                certified=cert)
        rep.add("lem4.2.bicomodule", "4.2", True, certified=cert)
    except TorsorKitError as exc:
        rep.add("prop4.1.tbar", "4.1", False, witness=str(exc))
        return rep
    try:
        rep.extend(an.isos.report)
    except TorsorKitError as exc:
        rep.add("thm4.4.isos", "4.4", False, witness=str(exc))
    # per-object equivalence witness on the regular comodule
    try:
        w = equivalence_witness(b, an.pair, an.tbar, an.creg, certified=cert)
        rep.extend(w.report)
    except TorsorKitError as exc:
        rep.add("cor4.8.witness", "4.8", False, witness=str(exc))
    return rep


def bialgebroid_report(an: BundleAnalysis) -> Report:
    b = an.bundle
    rep = Report(f"{b.name}:bialgebroid")
    cert = an.certified
    try:
        bgd_C, bgd_D = an.bialgebroids
        rep.extend(bgd_C.report)
        rep.extend(bgd_D.report)
    except TorsorKitError as exc:
        rep.add("thm5.2.bialgebroid", "5.2", False, witness=str(exc))
        return rep
    for tag, prop in (("C", "theta_right"), ("D", "theta_left")):
        try:
            th = getattr(an, prop)
            rep.extend(th.report)
        except TorsorKitError as exc:
            rep.add(f"theta.{tag}", "(2.1)", False, witness=str(exc))
    try:
        rep.extend(diagonal_coinvariants(b, an.pair))
    except TorsorKitError as exc:
        rep.add("lem5.3", "5.3", False, witness=str(exc))
    reduced = None
    try:
        creg = an.regular_comodule()
        witness, data = monoidal_witness(b, an.pair, an.bialgebroids[0], creg)
        rep.extend(witness.report)
        reduced = data["phi_MM"], data["S_MM"]
        ok = can_factorisation(b, an.pair, an.galois_right, data)
        rep.add("thm5.6.eq5.12", "(5.12)", ok, certified=cert)
        rep.extend(recovered_structure(b, an.pair, an.bialgebroids[0], data))
    except TorsorKitError as exc:
        rep.add("thm5.4.witness", "5.4", False, witness=str(exc))
    try:
        from .algebra import regular_bimodule
        A_bim = regular_bimodule(b.A)
        rep.extend(lemma55_check(b, an.pair, an.bialgebroids[0],
                                 an.theta_right, A_bim, reduced=reduced))
    except TorsorKitError as exc:
        rep.add("lem5.5", "(5.13)", False, witness=str(exc))
    return rep


def diffcalc_report(an: BundleAnalysis) -> Report:
    b = an.bundle
    rep = Report(f"{b.name}:diffcalc")
    try:
        calcA = build_calculus(b, an.pair, "A")
        calcB = build_calculus(b, an.pair, "B")
        rep.extend(calcA.report)
        rep.extend(calcB.report)
        rep.add("appB.omega-dims", "B.1", True,
                dims={"Omega1A": calcA.dim, "Omega1B": calcB.dim})
        right, left = connections(b, an.pair, calcA, calcB)
        rep.extend(right.report)
        rep.extend(left.report)
        bc = bimodule_connection(b, an.pair, calcA, calcB, left, an.ent_left)
        rep.extend(bc.report)
    except TorsorKitError as exc:
        rep.add("appB", "B", False, witness=str(exc))
    return rep
