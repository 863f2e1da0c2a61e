"""Formula oracle for the cohomological and virtual cohomological dimensions
of surface braid groups and mapping class groups with marked points.

Every query is total: the answer is an exact value, an upper bound, or an
explicit "undefined" carrying the violated hypothesis.  Bounds are never
silently promoted to equalities.
"""
from __future__ import annotations

from dataclasses import dataclass

from .words import DomainError

ORIENTABLE = "orientable"
NONORIENTABLE = "nonorientable"

NAMED_SURFACES = {
    "sphere": (ORIENTABLE, 0),
    "torus": (ORIENTABLE, 1),
    "projective-plane": (NONORIENTABLE, 1),
    "klein-bottle": (NONORIENTABLE, 2),
}

GROUPS = ("braid", "pure-braid", "mcg", "pmcg")
QUANTITIES = ("cd", "vcd")


@dataclass(frozen=True)
class SurfaceSpec:
    """A closed surface with marked points: orientable genus-g or
    non-orientable genus-g (g = number of projective planes), k punctures."""

    kind: str
    genus: int
    punctures: int = 0

    def __post_init__(self):
        if self.kind not in (ORIENTABLE, NONORIENTABLE):
            raise DomainError(f"kind must be {ORIENTABLE!r} or {NONORIENTABLE!r}")
        if self.kind == NONORIENTABLE and self.genus < 1:
            raise DomainError("non-orientable genus must be >= 1")
        if self.genus < 0 or self.punctures < 0:
            raise DomainError("genus and punctures must be nonnegative")

    @classmethod
    def named(cls, name: str, punctures: int = 0) -> "SurfaceSpec":
        kind, genus = NAMED_SURFACES[name]
        return cls(kind, genus, punctures)


@dataclass(frozen=True)
class DimAnswer:
    quantity: str
    group: str
    kind: str  # "exact" | "bound" | "undefined"
    value: int | None = None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.kind != "undefined"

    def __str__(self) -> str:
        if self.kind == "exact":
            return f"{self.quantity}({self.group}) = {self.value}"
        if self.kind == "bound":
            return f"{self.quantity}({self.group}) <= {self.value}"
        return f"{self.quantity}({self.group}) undefined: {self.reason}"


def dim_query(s: SurfaceSpec, group: str, quantity: str) -> DimAnswer:
    if group not in GROUPS:
        raise DomainError(f"group must be one of {GROUPS}")
    if quantity not in QUANTITIES:
        raise DomainError(f"quantity must be one of {QUANTITIES}")
    # A pure group has finite index in its full group, so both share one answer.
    family = _braid_dim if group in ("braid", "pure-braid") else _mcg_dim
    kind, value = family(s, quantity)
    if kind == "undefined":
        return DimAnswer(quantity, group, kind, reason=value)
    return DimAnswer(quantity, group, kind, value)


def _braid_dim(s: SurfaceSpec, quantity: str) -> tuple[str, int | str]:
    k = s.punctures
    if k < 1:
        return "undefined", "requires k >= 1"
    # Of the closed surfaces, only the sphere and the projective plane are not aspherical.
    if s.genus > (0 if s.kind == ORIENTABLE else 1):
        # Braid groups of closed aspherical surfaces are torsion free, so
        # cd and vcd agree: both equal k + 1.
        return "exact", k + 1
    if quantity == "cd":
        return "undefined", ("requires an aspherical surface (braid groups of the sphere "
                             "and projective plane have torsion, so cd is infinite)")
    # vcd is k - 3 on the sphere and k - 2 on the projective plane, where positive.
    shift = 3 if s.kind == ORIENTABLE else 2
    if k > shift:
        return "exact", k - shift
    return "undefined", f"requires k >= {shift + 1}"


def _mcg_dim(s: SurfaceSpec, quantity: str) -> tuple[str, int | str]:
    g, k = s.genus, s.punctures
    if quantity == "cd":
        return "undefined", "cd is not covered for mapping class groups (they contain torsion)"
    if s.kind == ORIENTABLE:
        if 2 * g + k <= 2:
            return "undefined", "requires 2g + k > 2"
        if k == 0:
            return "exact", 4 * g - 5
        return "exact", k - 3 if g == 0 else 4 * g + k - 4
    if g == 1:  # projective plane
        return ("exact", k - 2) if k >= 3 else ("undefined", "requires k >= 3")
    if g == 2:  # Klein bottle
        return ("exact", k) if k > 0 else ("undefined", "requires k > 0")
    # g >= 3: only upper bounds are available.
    return "bound", 4 * g + k - 8 if k > 0 else 4 * g - 9


@dataclass(frozen=True)
class SweepReport:
    checks: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def consistency_sweep(max_g: int = 20, max_k: int = 20) -> SweepReport:
    """Check the table's values against two upper bounds, each wherever
    both of its sides are defined (Brown, *Cohomology of Groups*, GTM 87,
    ch. VIII: cd and vcd never grow on a subgroup, and add up at most over
    an extension).

    Cover rule: for N_g with g >= 2 and k >= 0, every group and quantity,
    the value for N_g with k points is at most that for its orientable
    double cover S_(g-1) with 2k points, since the cover embeds B_k(N) in
    B_2k(S) and MCG(N; k) in MCG(S; 2k).

    Birman rule: for S_g with g >= 2 and N_g with g >= 3, and k >= 1,
    vcd MCG(k) <= cd B_k + vcd MCG(0), by the Birman exact sequence
    1 -> B_k -> MCG(k) -> MCG(0) -> 1.
    """
    checks = 0
    failures: list[str] = []

    def at_most(rule: str, surface: SurfaceSpec, left: DimAnswer, *right: DimAnswer):
        nonlocal checks
        if left.defined and all(a.defined for a in right):
            checks += 1
            if left.value > sum(a.value for a in right):
                sides = " + ".join(map(str, right))
                failures.append(f"{rule} rule at {surface}: {left} exceeds {sides}")

    for g in range(2, max_g + 1):
        for k in range(max_k + 1):
            surface, cover = SurfaceSpec(NONORIENTABLE, g, k), SurfaceSpec(ORIENTABLE, g - 1, 2 * k)
            for group in GROUPS:
                for quantity in QUANTITIES:
                    at_most("cover", surface, dim_query(surface, group, quantity),
                            dim_query(cover, group, quantity))
    for kind, min_g in ((ORIENTABLE, 2), (NONORIENTABLE, 3)):
        for g in range(min_g, max_g + 1):
            closed = dim_query(SurfaceSpec(kind, g), "mcg", "vcd")
            for k in range(1, max_k + 1):
                surface = SurfaceSpec(kind, g, k)
                at_most("Birman", surface, dim_query(surface, "mcg", "vcd"),
                        dim_query(surface, "braid", "cd"), closed)
    return SweepReport(checks, tuple(failures))
