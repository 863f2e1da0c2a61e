"""Normal-form engines for the pure and full 2-string braid groups of the
torus, plus verification of their defining presentations.

Elements of the full group carry a unique normal form w * a^m * b^n * s^eps,
where w is a reduced word in the free group on {x, y}, a and b are central,
and eps in {0, 1} records the strand permutation (s is the half twist).
The eps = 0 slice is the pure braid group F2(x, y) + Z(a) + Z(b).
The full twist is B = s^2 = [x, y^-1], a word in x and y.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import (
    Alphabet,
    FreeWord,
    GroupHom,
    HomReport,
    Presentation,
    RewriteRule,
    commutator,
    fold,
    power,
)

XY = Alphabet.of("x", "y")

X_WORD = XY.gen("x")
Y_WORD = XY.gen("y")

# B = s^2 = [x, y^-1]
B_WORD = commutator(X_WORD, Y_WORD.inverse())
B_INV_WORD = B_WORD.inverse()


@dataclass(frozen=True)
class B2TElement:
    """Normal form w * a^m * b^n * s^eps.  Equality is structural."""

    w: FreeWord
    m: int
    n: int
    eps: int

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {self.eps}")
        if self.w.alphabet is not XY and self.w.alphabet != XY:
            raise ValueError("free part must be a word over {x, y}")

    def is_identity(self) -> bool:
        return self.w.is_identity() and self.m == 0 and self.n == 0 and self.eps == 0

    def __mul__(self, other: "B2TElement") -> "B2TElement":
        if self.eps == 0:
            return B2TElement(
                self.w * other.w, self.m + other.m, self.n + other.n, other.eps
            )
        # Push the trailing s of self through the free part of other.
        conj, dm, dn = conjugate_by_sigma(other.w)
        w = self.w * conj
        if other.eps == 1:
            w = w * B_WORD  # s*s = B
        return B2TElement(w, self.m + other.m + dm, self.n + other.n + dn, self.eps ^ other.eps)

    def inverse(self) -> "B2TElement":
        pure_inv = B2TElement(self.w.inverse(), -self.m, -self.n, 0)
        if self.eps == 0:
            return pure_inv
        return SIGMA_INV * pure_inv

    def __pow__(self, k: int) -> "B2TElement":
        return power(self, k, IDENTITY)

    def commutes_with(self, other: "B2TElement") -> bool:
        return self * other == other * self

    def is_central(self) -> bool:
        return all(self.commutes_with(g) for g in GENERATORS)

    def __str__(self) -> str:
        parts = []
        if not self.w.is_identity():
            parts.append(str(self.w))
        if self.m:
            parts.append("a" if self.m == 1 else f"a^{self.m}")
        if self.n:
            parts.append("b" if self.n == 1 else f"b^{self.n}")
        if self.eps:
            parts.append("s")
        return "*".join(parts) if parts else "1"


def p2t(w: FreeWord, m: int = 0, n: int = 0) -> B2TElement:
    """An element of the pure braid group (the eps = 0 slice)."""
    return B2TElement(w, m, n, 0)


IDENTITY = B2TElement(XY.identity(), 0, 0, 0)
GEN_X = B2TElement(X_WORD, 0, 0, 0)
GEN_Y = B2TElement(Y_WORD, 0, 0, 0)
GEN_A = B2TElement(XY.identity(), 1, 0, 0)
GEN_B = B2TElement(XY.identity(), 0, 1, 0)
SIGMA = B2TElement(XY.identity(), 0, 0, 1)
FULL_TWIST = B2TElement(B_WORD, 0, 0, 0)  # B = s^2

# s^-1 = B^-1 * s, the canonical coset representative with eps = 1.
SIGMA_INV = B2TElement(B_INV_WORD, 0, 0, 1)

GENERATORS = (GEN_X, GEN_Y, GEN_A, GEN_B, SIGMA)

# Images of the letters of B2T_ALPHABET; B is the full twist [x, y^-1].
B2T_IMAGES = {"x": GEN_X, "y": GEN_Y, "a": GEN_A, "b": GEN_B, "s": SIGMA, "B": FULL_TWIST}

# Conjugation by s: s x s^-1 = B x^-1 a and s y s^-1 = B y^-1 b, with a and b
# central.  As B g^-1 = u g^-1 u^-1 for g = x, y and u = x y^-1, it sends a
# free part w to u w* u^-1 a^i b^j, where w* negates each exponent of w and
# i, j are the exponent sums of x and y in w.
U_WORD = X_WORD * Y_WORD.inverse()
U_INV_WORD = U_WORD.inverse()


def conjugate_by_sigma(w: FreeWord) -> tuple[FreeWord, int, int]:
    """Return (w', dm, dn) with s * w * s^-1 = w' * a^dm * b^dn."""
    flipped = FreeWord(XY, tuple((name, -k) for name, k in w.syllables))
    dm = sum(k for name, k in w.syllables if name == "x")
    dn = sum(k for name, k in w.syllables if name == "y")
    return U_WORD * flipped * U_INV_WORD, dm, dn


def from_word(w: FreeWord) -> B2TElement:
    """Fold a word over {x, y, a, b, s, B} through the engine.

    B is parsed as the full twist [x, y^-1], not as a free generator.
    """
    return fold(B2T_IMAGES, IDENTITY, w.syllables)


B2T_ALPHABET = Alphabet.of("x", "y", "a", "b", "s", "B")
P2T_ALPHABET = Alphabet.of("x", "y", "a", "b", "B")


def p2t_central_rules() -> list[RewriteRule]:
    """Rules pushing the central letters a, b to the right of x, y (and b to
    the right of a), giving the normal form w * a^m * b^n by rewriting alone.
    """
    rules = []
    p = P2T_ALPHABET.parse
    for c in ("a", "b"):
        for ce in (1, -1):
            for t in ("x", "y"):
                for te in (1, -1):
                    rules.append(RewriteRule(p(f"{c}^{ce}*{t}^{te}"), p(f"{t}^{te}*{c}^{ce}")))
    for ce in (1, -1):
        for ae in (1, -1):
            rules.append(RewriteRule(p(f"b^{ce}*a^{ae}"), p(f"a^{ae}*b^{ce}")))
    return rules


def b2t_presentation() -> Presentation:
    """The six-generator presentation of the full group, as relators."""
    al = B2T_ALPHABET
    x, y = al.gen("x"), al.gen("y")
    a, b, s, B = al.gen("a"), al.gen("b"), al.gen("s"), al.gen("B")
    relators = [
        s * s * B.inverse(),                                   # (a) s^2 = B
        commutator(x, y.inverse()) * B.inverse(),              # (a) [x, y^-1] = B
        commutator(a, b.inverse()),                            # (b)
        commutator(a, x), commutator(a, y),                    # (c)
        commutator(b, x), commutator(b, y),                    # (d)
        s * x * s.inverse() * (B * x.inverse() * a).inverse(), # (e)
        s * y * s.inverse() * (B * y.inverse() * b).inverse(), # (e)
        s * a * s.inverse() * a.inverse(),                     # (f)
        s * b * s.inverse() * b.inverse(),                     # (f)
    ]
    return Presentation(al, tuple(relators))


def verify_presentation_b2t() -> HomReport:
    """Check relations (a)-(f) of the six-generator presentation in the engine."""
    return GroupHom(b2t_presentation(), B2T_IMAGES, identity=IDENTITY).verify()


# Images of the five surface generators rho_{i,j} in the engine:
# rho_{1,1} -> x, rho_{1,2} -> y, rho_{2,1} -> B x^-1 a, rho_{2,2} -> B y^-1 b.
RHO_IMAGES = {
    "B": FULL_TWIST,
    "r11": GEN_X,
    "r12": GEN_Y,
    "r21": FULL_TWIST * GEN_X.inverse() * GEN_A,
    "r22": FULL_TWIST * GEN_Y.inverse() * GEN_B,
}


def rho_presentation() -> Presentation:
    al = Alphabet.of("B", "r11", "r12", "r21", "r22")
    B = al.gen("B")
    r11, r12, r21, r22 = al.gen("r11"), al.gen("r12"), al.gen("r21"), al.gen("r22")
    relators = [
        commutator(r11, r12.inverse()) * B.inverse(),                     # (a)
        commutator(r21, r22.inverse()) * B.inverse(),                     # (a)
        r21 * r11 * r21.inverse() * (B * r11 * B.inverse()).inverse(),    # (b)
        r21 * r12 * r21.inverse()                                         # (c)
        * (B * r12 * commutator(r11.inverse(), B)).inverse(),
        r22 * r11 * r22.inverse() * (r11 * B.inverse()).inverse(),        # (d)
        r22 * r12 * r22.inverse() * (B * r12 * B.inverse()).inverse(),    # (e)
    ]
    return Presentation(al, tuple(relators))


def useful_relators() -> list[FreeWord]:
    """Two consequences of the surface presentation, checked independently:
    r21 B r21^-1 = B r11^-1 B r11 B^-1 and r22 B r22^-1 = B r12^-1 B r12 B^-1.
    """
    al = rho_presentation().alphabet
    B = al.gen("B")
    out = []
    for top, side in (("r21", "r11"), ("r22", "r12")):
        t, s = al.gen(top), al.gen(side)
        rhs = B * s.inverse() * B * s * B.inverse()
        out.append(t * B * t.inverse() * rhs.inverse())
    return out


def verify_presentation_rho() -> HomReport:
    """Check the five-generator surface presentation of the pure group,
    plus the two derived relations, in the engine."""
    pres = rho_presentation()
    pres = Presentation(pres.alphabet, pres.relators + tuple(useful_relators()))
    return GroupHom(pres, RHO_IMAGES, identity=IDENTITY).verify()


# The intermediate change of variables: d11 = r11, t11 = r12,
# d21 = B^-1 r21 -> x^-1 a, t21 = B^-1 r22 -> y^-1 b.
DELTA_TAU_IMAGES = {
    "B": FULL_TWIST,
    "d11": GEN_X,
    "t11": GEN_Y,
    "d21": GEN_X.inverse() * GEN_A,
    "t21": GEN_Y.inverse() * GEN_B,
}


def delta_tau_presentation() -> Presentation:
    al = Alphabet.of("B", "d11", "t11", "d21", "t21")
    B = al.gen("B")
    d11, t11, d21, t21 = al.gen("d11"), al.gen("t11"), al.gen("d21"), al.gen("t21")
    relators = [
        commutator(d11, t11.inverse()) * B.inverse(),                       # (a)
        commutator(B * d21, t21.inverse() * B.inverse()) * B.inverse(),     # (a)
        commutator(d21, d11),                                               # (b)
        commutator(t21, t11),                                               # (b)
        d21 * t11 * d21.inverse()                                           # (c)
        * (t11 * d11.inverse() * B * d11).inverse(),
        t21 * d11 * t21.inverse() * (B.inverse() * d11).inverse(),          # (d)
    ]
    return Presentation(al, tuple(relators))


def verify_presentation_delta_tau() -> HomReport:
    return GroupHom(delta_tau_presentation(), DELTA_TAU_IMAGES, identity=IDENTITY).verify()


def verify_all_presentations() -> dict[str, HomReport]:
    return {
        "surface_generators": verify_presentation_rho(),
        "delta_tau": verify_presentation_delta_tau(),
        "full_group": verify_presentation_b2t(),
    }
