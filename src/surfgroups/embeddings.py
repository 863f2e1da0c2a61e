"""The embedding of the Klein bottle group into the torus 2-string braid
group, the lift calculus from Klein-bottle mapping classes to SL(2, Z), and
point-set lifting through the orientable double cover.

The embedding is computed by its closed form, and is injective on all of
Z^2: `phi1_retract` is a left inverse of the closed form, and its docstring
proves that the closed form is phi1.  The ball certificate is a finite
cross-check of the same fact.  The closed form's free parts are built once
per r and shared; their cache holds at most 2 * DEFAULT_BALL_BOUND + 1 rows.

The covering is modelled flatly on (R/Z)^2 with the free orientation-
reversing involution iota(u, v) = (u + 1/2 mod 1, -v mod 1); the quotient is
the Klein bottle with fundamental domain u in [0, 1/2), v in [0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .klein import KLEIN_PRESENTATION, MCG_K, KleinElement, KleinEndo
from .torusbraid import GEN_A, GEN_B, GEN_X, GEN_Y, IDENTITY, SIGMA_INV, XY, B2TElement
from .words import DomainError, FreeWord, GroupHom

DEFAULT_BALL_BOUND = 64


# Generator images: al -> a^-1 x^2, be -> y s^-1.
PHI1_IMAGE_ALPHA = GEN_A.inverse() * GEN_X * GEN_X
PHI1_IMAGE_BETA = GEN_Y * SIGMA_INV

PHI1_HOM = GroupHom(
    KLEIN_PRESENTATION,
    {"al": PHI1_IMAGE_ALPHA, "be": PHI1_IMAGE_BETA},
    identity=IDENTITY,
)


def phi1(u: KleinElement) -> B2TElement:
    """Image of al^r be^s under the embedding into the torus braid group.
    It is the closed form; the docstring of `phi1_retract` proves the two
    equal."""
    return phi1_closed_form(u.r, u.s)


@lru_cache(maxsize=2 * DEFAULT_BALL_BOUND + 1)
def _closed_form_words(r: int) -> tuple[FreeWord, FreeWord]:
    """The free parts of phi1(al^r be^s): x^(2r) for even s, and
    x^(2r+1) y x^-1 for odd s."""
    # x^(2r) * y * B^-1 reduces to x^(2r+1) * y * x^-1; 2r + 1 is never 0.
    return (
        FreeWord(XY, (("x", 2 * r),) if r else ()),
        FreeWord(XY, (("x", 2 * r + 1), ("y", 1), ("x", -1))),
    )


def phi1_closed_form(r: int, s: int) -> B2TElement:
    """Direct normal form of phi1(al^r be^s):
    x^(2r) a^-r b^(s/2) when s is even, and x^(2r) y a^-r b^((s-1)/2) s^-1
    when s is odd, with the trailing s^-1 canonicalised as B^-1 s.

    Every call with the same r shares one immutable free part; the cache
    holds the last 2 * DEFAULT_BALL_BOUND + 1 values of r, one per row of
    the largest ball, so the ball certificate builds each row's words once.
    """
    even, odd = _closed_form_words(r)
    if s % 2 == 0:
        return B2TElement(even, -r, s // 2, 0)
    return B2TElement(odd, -r, (s - 1) // 2, 1)


def phi1_retract(g: B2TElement) -> KleinElement | None:
    """The left inverse of the closed form: w * a^m * b^n * s^eps goes to
    al^r be^s with r = -m and s = 2n + eps, or to None when g is not
    phi1_closed_form(r, s), that is, when g lies outside the image.

    Proof that phi1 is injective on all of Z^2.  Write C = phi1_closed_form,
    A = x^2 a^-1 and B = x y x^-1 s for the images of al and be (the
    normal forms of a^-1 x^2 and y s^-1).

    1. C is injective: C(r, s) has m = -r and 2n + eps = s in both parity
       classes, so retract(C(r, s)) = (r, s).
    2. C = phi1.  C(0, 0) = 1, and for all r, s:
         C(r, s) * A = C(r + (-1)^s, s)   and   C(r, s) * B = C(r, s + 1).
       Applied at (r - (-1)^s, s) and (r, s - 1), the same identities give
       C(r, s) * A^-1 = C(r - (-1)^s, s) and C(r, s) * B^-1 = C(r, s - 1).
       These are the Klein product rules al^r be^s * al^+-1 =
       al^(r +- (-1)^s) be^s and al^r be^s * be^+-1 = al^r be^(s +- 1), so
       induction on word length gives C(u) = PHI1_HOM.evaluate(w) for every
       word w over al, be that represents u.  PHI1_HOM.verify() shows that
       the relator maps to 1, so that evaluation is the homomorphism phi1.
    Case split for the step identities, reducing words at the seam
    (conjugation by s sends x^k to u x^-k u^-1 a^k and x y x^-1 to
    u x^-1 y^-1 x u^-1 b, with u = x y^-1, and s * s = B = x y^-1 x^-1 y):
      s even, * A:  x^(2r) * x^2 = x^(2r+2), m: -r - 1.  At r = 0 the left
                    syllable is absent, and at r = -1 the two cancel; both
                    give x^(2r+2) with x^0 read as the empty word.
      s odd,  * A:  x^(2r+1) y x^-1 * u x^-2 u^-1 = x^(2r-1) y x^-1,
                    m: -r - 1 + 2 = -(r - 1).  2r + 1 - 2 is odd, so no
                    syllable vanishes.
      s even, * B:  x^(2r) * x y x^-1 = x^(2r+1) y x^-1, eps: 1.  At r = 0
                    the left syllable is absent; 2r + 1 never vanishes.
      s odd,  * B:  x^(2r+1) y x^-1 * u x^-1 y^-1 x u^-1 * B = x^(2r),
                    n: n + 1, eps: 0.  x^(2r+1) * x^-1 vanishes at r = 0,
                    and then the empty word remains.
    So phi1 = C is injective on all of Z^2; the ball certificate is a finite
    cross-check of the same fact.
    """
    r, s = -g.m, 2 * g.n + g.eps
    return KleinElement(r, s) if phi1_closed_form(r, s) == g else None


@dataclass(frozen=True)
class BallReport:
    radius: int
    count: int
    collisions: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    @property
    def passed(self) -> bool:
        return not self.collisions and self.count == (2 * self.radius + 1) ** 2


def certify_injectivity_ball(radius: int) -> BallReport:
    """Enumerate all al^r be^s with |r|, |s| <= radius and certify that their
    images are pairwise distinct by canonical-form hashing.

    Each image is the closed form, built directly with no group product.
    Injectivity on all of Z^2 is proved by `phi1_retract`; this certificate
    is a finite cross-check of the same fact, by enumeration."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    if radius > DEFAULT_BALL_BOUND:
        raise DomainError(f"radius {radius} exceeds configured bound {DEFAULT_BALL_BOUND}")
    seen: dict = {}
    collisions = []
    for r in range(-radius, radius + 1):
        for s in range(-radius, radius + 1):
            img = phi1_closed_form(r, s)
            key = (img.w.syllables, img.m, img.n, img.eps)
            if key in seen:
                collisions.append((seen[key], (r, s)))
            else:
                seen[key] = (r, s)
    return BallReport(radius, len(seen), tuple(collisions))


@dataclass(frozen=True)
class IntMat2:
    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


MAT_I = IntMat2(1, 0, 0, 1)


def lift_matrices(e: KleinEndo) -> tuple[IntMat2, IntMat2]:
    """The two lifts of an endomorphism al -> al^r, be -> al^u be^v (v odd)
    act on the torus group by the matrices diag(r, v) and diag(-r, v)."""
    if e.image_alpha.s != 0:
        raise DomainError(f"image of al must be a power of al, got {e.image_alpha}")
    v = e.image_beta.s
    if v % 2 == 0:
        raise DomainError(f"image of be has even be-exponent {v}; no lift exists")
    r = e.image_alpha.r
    return IntMat2(r, 0, 0, v), IntMat2(-r, 0, 0, v)


def induced_sl2(e: KleinEndo) -> IntMat2:
    """The degree-1 lift: whichever of the two lift matrices has determinant +1."""
    m1, m2 = lift_matrices(e)
    if abs(e.image_alpha.r) != 1 or abs(e.image_beta.s) != 1:
        raise DomainError(
            f"SL(2, Z) image requires |r| = |v| = 1, got r={e.image_alpha.r}, v={e.image_beta.s}"
        )
    return m1 if m1.det() == 1 else m2


def ker_phi_mcgk() -> tuple[KleinEndo, ...]:
    """The mapping classes sent to the identity matrix (exactly two of four)."""
    return tuple(e for e in MCG_K if induced_sl2(e) == MAT_I)


HALF = Fraction(1, 2)


@dataclass(frozen=True, order=True)
class TorusPoint:
    u: Fraction
    v: Fraction

    def __post_init__(self):
        if not (0 <= self.u < 1 and 0 <= self.v < 1):
            raise DomainError(f"torus point ({self.u}, {self.v}) outside [0,1)x[0,1)")


@dataclass(frozen=True, order=True)
class KleinPoint:
    u: Fraction
    v: Fraction

    def __post_init__(self):
        if not (0 <= self.u < HALF and 0 <= self.v < 1):
            raise DomainError(f"Klein point ({self.u}, {self.v}) outside [0,1/2)x[0,1)")


def deck(p: TorusPoint) -> TorusPoint:
    """The free involution iota(u, v) = (u + 1/2, -v) on the torus."""
    return TorusPoint((p.u + HALF) % 1, -p.v % 1)


def lift_configuration(points: Iterable[KleinPoint]) -> list[TorusPoint]:
    """Full preimage of a configuration under the double cover: each point
    lifts to an iota-orbit {p, iota(p)}; the result has 2k distinct points."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DomainError("configuration points must be pairwise distinct")
    lifted: set[TorusPoint] = set()
    for p in pts:
        q = TorusPoint(p.u, p.v)
        lifted.add(q)
        lifted.add(deck(q))
    return sorted(lifted)
