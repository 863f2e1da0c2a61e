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
    format_word,
    _negate,
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
        """For eps = 1, (w*a^m*b^n*s)^-1 = B^-1*u*rev(w)*u^-1*a^(-m-i)*b^(-n-j)*s,
        where rev(w) is w's syllables in reverse order, exponents unchanged.

        Proof: s^-1 = B^-1*s, as s^2 = B, and a, b are central, so the inverse
        is B^-1*(s*w^-1*s^-1)*a^-m*b^-n*s.  Conjugation by s sends w^-1 to
        u*rev(w)*u^-1*a^-i*b^-j (see `conjugate_by_sigma`): negating each
        exponent of w^-1 gives rev(w), and the exponent sums of w^-1 are -i
        and -j.
        """
        if self.eps == 0:
            return B2TElement(self.w.inverse(), -self.m, -self.n, 0)
        syl = self.w.syllables
        i, j = _exponent_sums(syl)
        rev = FreeWord(XY, syl[::-1])
        return B2TElement(B_INV_WORD * U_WORD * rev * U_INV_WORD, -self.m - i, -self.n - j, 1)

    def __pow__(self, k: int) -> "B2TElement":
        """For eps = 0, (w, m, n, 0)^k = (w^k, m*k, n*k, 0) for every k, as a
        and b are central.  For eps = 1 and k >= 0, g^(2q+r) = (g*g)^q * g^r
        with r in {0, 1}, and g*g has eps = 0; a negative k powers the
        inverse.  g*g is built only when q > 0.
        """
        if self.eps == 0:
            return B2TElement(self.w ** k, self.m * k, self.n * k, 0)
        if k < 0:
            return self.inverse() ** -k
        q, r = divmod(k, 2)
        square = (self * self) ** q if q else IDENTITY
        return square * self if r else square

    def is_central(self) -> bool:
        """The center is <a, b>: w = 1 and eps = 0.

        Proof: a and b are central by relators (b)-(d) and (f).  For eps = 0,
        commuting with x and y puts w in C(x) & C(y) = <x> & <y> = 1 in F2.
        For eps = 1, g*x*g^-1 has a-exponent 1, and x has 0.
        """
        return self.w.is_identity() and self.eps == 0

    def __str__(self) -> str:
        central = (("a", self.m), ("b", self.n), ("s", self.eps))
        return format_word(self.w.syllables + tuple(syl for syl in central if syl[1]))


IDENTITY = B2TElement(XY.identity(), 0, 0, 0)
GEN_X = B2TElement(X_WORD, 0, 0, 0)
GEN_Y = B2TElement(Y_WORD, 0, 0, 0)
GEN_A = B2TElement(XY.identity(), 1, 0, 0)
GEN_B = B2TElement(XY.identity(), 0, 1, 0)
SIGMA = B2TElement(XY.identity(), 0, 0, 1)
FULL_TWIST = B2TElement(B_WORD, 0, 0, 0)  # B = s^2

# s^-1 = B^-1 * s, the canonical coset representative with eps = 1.
SIGMA_INV = B2TElement(B_INV_WORD, 0, 0, 1)

# Images of the letters of B2T_ALPHABET; B is the full twist [x, y^-1].
B2T_IMAGES = {"x": GEN_X, "y": GEN_Y, "a": GEN_A, "b": GEN_B, "s": SIGMA, "B": FULL_TWIST}

# Conjugation by s: s x s^-1 = B x^-1 a and s y s^-1 = B y^-1 b, with a and b
# central.  As B g^-1 = u g^-1 u^-1 for g = x, y and u = x y^-1, it sends a
# free part w to u w* u^-1 a^i b^j, where w* negates each exponent of w and
# i, j are the exponent sums of x and y in w.
U_WORD = X_WORD * Y_WORD.inverse()
U_INV_WORD = U_WORD.inverse()


def _exponent_sums(syllables: tuple[tuple[str, int], ...]) -> tuple[int, int]:
    """The exponent sums of x and y in the syllables of a free part, a word
    over XY (so every name but x is y), in one pass."""
    i = j = 0
    for name, k in syllables:
        if name == "x":
            i += k
        else:
            j += k
    return i, j


def conjugate_by_sigma(w: FreeWord) -> tuple[FreeWord, int, int]:
    """Return (w', dm, dn) with s * w * s^-1 = w' * a^dm * b^dn."""
    dm, dn = _exponent_sums(w.syllables)
    return U_WORD * FreeWord(XY, _negate(w.syllables)) * U_INV_WORD, dm, dn


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


# The shipped presentations, one row per report: the images of the
# generators, as words over B2T_ALPHABET, and the relators in the reduced form
# the report prints.  Labels (a)-(f) follow Goncalves-Guaschi.
PRESENTATIONS = {
    # The five-generator surface presentation of the pure group, then two derived relations.
    "surface_generators": (
        {"B": "B", "r11": "x", "r12": "y", "r21": "B*x^-1*a", "r22": "B*y^-1*b"},
        [
            "r11*r12^-1*r11^-1*r12*B^-1",                    # (a)
            "r21*r22^-1*r21^-1*r22*B^-1",                    # (a)
            "r21*r11*r21^-1*B*r11^-1*B^-1",                  # (b)
            "r21*r12*r21^-1*B*r11^-1*B^-1*r11*r12^-1*B^-1",  # (c)
            "r22*r11*r22^-1*B*r11^-1",                       # (d)
            "r22*r12*r22^-1*B*r12^-1*B^-1",                  # (e)
            "r21*B*r21^-1*B*r11^-1*B^-1*r11*B^-1",           # derived
            "r22*B*r22^-1*B*r12^-1*B^-1*r12*B^-1",           # derived
        ],
    ),
    # The intermediate change of variables: d11 = r11, t11 = r12,
    # d21 = B^-1 r21 -> x^-1 a, t21 = B^-1 r22 -> y^-1 b.
    "delta_tau": (
        {"B": "B", "d11": "x", "t11": "y", "d21": "x^-1*a", "t21": "y^-1*b"},
        [
            "d11*t11^-1*d11^-1*t11*B^-1",             # (a)
            "B*d21*t21^-1*B^-1*d21^-1*t21*B^-1",      # (a)
            "d21*d11*d21^-1*d11^-1",                  # (b)
            "t21*t11*t21^-1*t11^-1",                  # (b)
            "d21*t11*d21^-1*d11^-1*B^-1*d11*t11^-1",  # (c)
            "t21*d11*t21^-1*d11^-1*B",                # (d)
        ],
    ),
    # The six-generator presentation of the full group.
    "full_group": (
        {"x": "x", "y": "y", "a": "a", "b": "b", "s": "s", "B": "B"},
        [
            "s^2*B^-1",                  # (a) s^2 = B
            "x*y^-1*x^-1*y*B^-1",        # (a) [x, y^-1] = B
            "a*b^-1*a^-1*b",             # (b)
            "a*x*a^-1*x^-1",             # (c)
            "a*y*a^-1*y^-1",             # (c)
            "b*x*b^-1*x^-1",             # (d)
            "b*y*b^-1*y^-1",             # (d)
            "s*x*s^-1*a^-1*x*B^-1",      # (e)
            "s*y*s^-1*b^-1*y*B^-1",      # (e)
            "s*a*s^-1*a^-1",             # (f)
            "s*b*s^-1*b^-1",             # (f)
        ],
    ),
}

PRESENTATION_HOMS = {
    name: GroupHom(
        Presentation.parse(Alphabet.of(*images), relators),
        {gen: from_word(B2T_ALPHABET.parse(word)) for gen, word in images.items()},
        identity=IDENTITY,
    )
    for name, (images, relators) in PRESENTATIONS.items()
}


def verify_all_presentations() -> dict[str, HomReport]:
    """Check every relator of every shipped presentation in the engine."""
    return {name: hom.verify() for name, hom in PRESENTATION_HOMS.items()}
