"""Exact normal-form arithmetic in the Klein bottle group and its
endomorphism calculus.

The fundamental group of the Klein bottle is <al, be | al*be*al*be^-1>, and
every element has a unique normal form al^r * be^s.  The twisted product law
is (r, s) . (p, q) = (r + (-1)^s p, s + q).
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import Alphabet, FreeWord, Presentation, RewriteRule, fold, power

KLEIN_ALPHABET = Alphabet.of("al", "be")

KLEIN_PRESENTATION = Presentation.parse(KLEIN_ALPHABET, ["al*be*al*be^-1"])


@dataclass(frozen=True)
class KleinElement:
    r: int
    s: int

    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0

    def __mul__(self, other: "KleinElement") -> "KleinElement":
        sign = -1 if self.s % 2 else 1
        return KleinElement(self.r + sign * other.r, self.s + other.s)

    def inverse(self) -> "KleinElement":
        sign = 1 if self.s % 2 else -1
        return KleinElement(sign * self.r, -self.s)

    def __pow__(self, n: int) -> "KleinElement":
        return power(self, n, KLEIN_IDENTITY)

    def is_central(self) -> bool:
        # Z = <be^2>: the center is exactly {al^0 be^s : s even}.
        return self.r == 0 and self.s % 2 == 0

    def to_word(self) -> FreeWord:
        return KLEIN_ALPHABET.word([("al", self.r), ("be", self.s)])

    def __str__(self) -> str:
        return str(self.to_word())


KLEIN_IDENTITY = KleinElement(0, 0)
ALPHA = KleinElement(1, 0)
BETA = KleinElement(0, 1)
KLEIN_IMAGES = {"al": ALPHA, "be": BETA}


def from_word(w: FreeWord) -> KleinElement:
    """Fold a word over {al, be} through the engine."""
    return fold(KLEIN_IMAGES, KLEIN_IDENTITY, w.syllables)


def klein_rewrite_rules() -> list[RewriteRule]:
    """Confluent rules pushing al past be: be*al -> al^-1*be and the three
    variants forced on inverse letters by the relation.
    """
    p = KLEIN_ALPHABET.parse
    return [
        RewriteRule(p("be*al"), p("al^-1*be")),
        RewriteRule(p("be*al^-1"), p("al*be")),
        RewriteRule(p("be^-1*al"), p("al^-1*be^-1")),
        RewriteRule(p("be^-1*al^-1"), p("al*be^-1")),
    ]


@dataclass(frozen=True)
class KleinEndo:
    """An endomorphism given by the images of al and be."""

    image_alpha: KleinElement
    image_beta: KleinElement

    def __call__(self, u: KleinElement) -> KleinElement:
        return self.image_alpha ** u.r * self.image_beta ** u.s

    def verify(self) -> bool:
        """Well-defined iff the relator al*be*al*be^-1 maps to the identity."""
        a, b = self.image_alpha, self.image_beta
        return (a * b * a * b.inverse()).is_identity()

    def compose(self, other: "KleinEndo") -> "KleinEndo":
        """self after other, as plain endomorphisms."""
        return KleinEndo(self(other.image_alpha), self(other.image_beta))

    def outer_class(self) -> "KleinEndo":
        """Canonical representative modulo inner automorphisms.

        Only defined for automorphisms: al must map to al^+-1 and the image
        of be must have odd be-exponent.  Conjugation by be sends al to
        al^-1 and negates the al-exponent of the be-image; conjugation by al
        shifts that exponent by 2.  So the class has a unique representative
        with al fixed and al-exponent of the be-image in {0, 1}.
        """
        a, b = self.image_alpha, self.image_beta
        if a.s != 0 or abs(a.r) != 1 or b.s % 2 == 0:
            raise ValueError("outer_class requires an automorphism")
        r = -b.r if a.r == -1 else b.r
        return KleinEndo(ALPHA, KleinElement(r % 2, b.s))


def mcg_compose(e: KleinEndo, f: KleinEndo) -> KleinEndo:
    """Composition of mapping classes: e after f, modulo inner automorphisms."""
    return e.compose(f).outer_class()


# The four mapping classes of the Klein bottle, as automorphisms of its
# fundamental group; together they form a Klein four-group.
E1 = KleinEndo(ALPHA, BETA)
E2 = KleinEndo(ALPHA, ALPHA * BETA)
E3 = KleinEndo(ALPHA, BETA.inverse())
E4 = KleinEndo(ALPHA, ALPHA * BETA.inverse())

MCG_K = (E1, E2, E3, E4)
