import pytest

import surfgroups.dims
from surfgroups.dims import (
    GROUPS,
    QUANTITIES,
    DimAnswer,
    SurfaceSpec,
    consistency_sweep,
    dim_query,
)


def q(surface, group="braid", quantity="cd"):
    return dim_query(surface, group, quantity)


# Every surface with genus and punctures up to 12.
GRID = [SurfaceSpec("orientable", g, k) for g in range(0, 13) for k in range(0, 13)]
GRID += [SurfaceSpec("nonorientable", g, k) for g in range(1, 13) for k in range(0, 13)]


# A reference table with one branch per case and its own answer builders,
# the oracle for every field of `dim_query`'s answers.
def _exact(q, grp, v):
    return DimAnswer(q, grp, "exact", v)


def _bound(q, grp, v):
    return DimAnswer(q, grp, "bound", v)


def _undef(q, grp, reason):
    return DimAnswer(q, grp, "undefined", reason=reason)


def _is_aspherical(s):
    return (s.kind == "orientable" and s.genus >= 1) or (
        s.kind == "nonorientable" and s.genus >= 2
    )


def _braid_query(s, grp, q):
    k = s.punctures
    if k < 1:
        return _undef(q, grp, "requires k >= 1")
    if _is_aspherical(s):
        return _exact(q, grp, k + 1)
    if q == "cd":
        return _undef(
            q, grp, "requires an aspherical surface (braid groups of the sphere "
            "and projective plane have torsion, so cd is infinite)"
        )
    if s.kind == "orientable":  # sphere
        if k >= 4:
            return _exact(q, grp, k - 3)
        return _undef(q, grp, "requires k >= 4")
    if k >= 3:  # projective plane
        return _exact(q, grp, k - 2)
    return _undef(q, grp, "requires k >= 3")


def _mcg_query(s, grp, q):
    k = s.punctures
    if q == "cd":
        return _undef(
            q, grp, "cd is not covered for mapping class groups (they contain torsion)"
        )
    if s.kind == "orientable":
        g = s.genus
        if 2 * g + k <= 2:
            return _undef(q, grp, "requires 2g + k > 2")
        if k == 0:
            return _exact(q, grp, 4 * g - 5)
        if g == 0:
            return _exact(q, grp, k - 3)
        return _exact(q, grp, 4 * g + k - 4)
    g = s.genus
    if g == 1:  # projective plane
        if k >= 3:
            return _exact(q, grp, k - 2)
        return _undef(q, grp, "requires k >= 3")
    if g == 2:  # Klein bottle
        if k > 0:
            return _exact(q, grp, k)
        return _undef(q, grp, "requires k > 0")
    if k > 0:
        return _bound(q, grp, 4 * g + k - 8)
    return _bound(q, grp, 4 * g - 9)


def oracle_query(s, group, quantity):
    if group in ("braid", "pure-braid"):
        return _braid_query(s, group, quantity)
    return _mcg_query(s, group, quantity)


class TestBraidDimensions:
    @pytest.mark.parametrize("g", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_orientable_cd(self, g, k):
        ans = q(SurfaceSpec("orientable", g, k))
        assert (ans.kind, ans.value) == ("exact", k + 1)

    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_nonorientable_cd(self, g):
        ans = q(SurfaceSpec("nonorientable", g, 4))
        assert (ans.kind, ans.value) == ("exact", 5)

    def test_torsion_free_vcd_equals_cd(self):
        s = SurfaceSpec("orientable", 2, 3)
        assert q(s, "braid", "vcd").value == q(s, "braid", "cd").value == 4

    @pytest.mark.parametrize("k,expected", [(4, 1), (5, 2), (10, 7)])
    def test_sphere_vcd(self, k, expected):
        ans = q(SurfaceSpec.named("sphere", k), "braid", "vcd")
        assert (ans.kind, ans.value) == ("exact", expected)

    def test_sphere_vcd_below_threshold(self):
        ans = q(SurfaceSpec.named("sphere", 3), "braid", "vcd")
        assert ans.kind == "undefined"
        assert "k >= 4" in ans.reason

    @pytest.mark.parametrize("k,expected", [(3, 1), (6, 4)])
    def test_projective_plane_vcd(self, k, expected):
        ans = q(SurfaceSpec.named("projective-plane", k), "braid", "vcd")
        assert (ans.kind, ans.value) == ("exact", expected)

    def test_sphere_cd_undefined(self):
        assert q(SurfaceSpec.named("sphere", 5), "braid", "cd").kind == "undefined"


class TestMcgDimensions:
    def test_closed_orientable(self):
        ans = q(SurfaceSpec("orientable", 2, 0), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("exact", 3)  # 4g - 5

    def test_punctured_orientable(self):
        ans = q(SurfaceSpec("orientable", 3, 2), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("exact", 4 * 3 + 2 - 4)

    def test_sphere_row(self):
        ans = q(SurfaceSpec.named("sphere", 4), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("exact", 1)

    def test_hypothesis_gate(self):
        ans = q(SurfaceSpec.named("torus", 0), "mcg", "vcd")
        assert ans.kind == "undefined"
        assert "2g + k > 2" in ans.reason

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_klein_bottle(self, k):
        ans = q(SurfaceSpec.named("klein-bottle", k), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("exact", k)

    @pytest.mark.parametrize("g,k", [(3, 1), (5, 2), (4, 9)])
    def test_higher_nonorientable_is_a_bound(self, g, k):
        ans = q(SurfaceSpec("nonorientable", g, k), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("bound", 4 * g + k - 8)

    def test_closed_nonorientable_bound(self):
        ans = q(SurfaceSpec("nonorientable", 5, 0), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("bound", 4 * 5 - 9)

    @pytest.mark.parametrize("k,expected", [(3, 1), (7, 5)])
    def test_projective_plane_mcg(self, k, expected):
        ans = q(SurfaceSpec.named("projective-plane", k), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("exact", expected)

    def test_mcg_cd_undefined_with_reason(self):
        ans = q(SurfaceSpec("orientable", 2, 1), "mcg", "cd")
        assert ans.kind == "undefined" and ans.reason


class TestTotalityAndAgreement:
    def test_every_query_answers(self):
        surfaces = [SurfaceSpec("orientable", g, k) for g in range(0, 5) for k in range(0, 5)]
        surfaces += [SurfaceSpec("nonorientable", g, k) for g in range(1, 5) for k in range(0, 5)]
        for s in surfaces:
            for group in GROUPS:
                for quantity in QUANTITIES:
                    ans = dim_query(s, group, quantity)
                    assert ans.kind in ("exact", "bound", "undefined")
                    if ans.kind == "undefined":
                        assert ans.reason
                    else:
                        assert isinstance(ans.value, int)

    def test_matches_the_branch_table(self):
        for s in GRID:
            for group in GROUPS:
                for quantity in QUANTITIES:
                    got, want = dim_query(s, group, quantity), oracle_query(s, group, quantity)
                    assert (got.quantity, got.group, got.kind, got.value, got.reason) == (
                        want.quantity, want.group, want.kind, want.value, want.reason
                    ), s
                    assert str(got) == str(want)

    def test_pure_full_agreement(self):
        for s in GRID:
            for quantity in QUANTITIES:
                b, p = dim_query(s, "braid", quantity), dim_query(s, "pure-braid", quantity)
                assert (b.kind, b.value, b.reason) == (p.kind, p.value, p.reason)
                m, pm = dim_query(s, "mcg", quantity), dim_query(s, "pmcg", quantity)
                assert (m.kind, m.value, m.reason) == (pm.kind, pm.value, pm.reason)


class TestConsistencySweep:
    def test_sweep_passes(self):
        report = consistency_sweep()
        assert report.passed, report.failures
        assert report.checks > 0

    @pytest.mark.parametrize("max_g, max_k", [(3, 3), (4, 4), (5, 5)])
    def test_sweep_passes_on_small_grids(self, max_g, max_k):
        report = consistency_sweep(max_g, max_k)
        assert report.passed, report.failures
        assert report.checks > 0

    @pytest.mark.parametrize(
        "rule, mutated, shift",
        [
            # Klein-bottle MCG vcd k -> k + 5 exceeds the cover's 2k for k < 5.
            ("cover rule", lambda s: (s.kind, s.genus) == ("nonorientable", 2), 5),
            # Punctured orientable MCG vcd 4g + k - 4 -> 4g + k - 3 exceeds
            # cd B_k + vcd MCG(0) = (k + 1) + (4g - 5).
            ("Birman rule", lambda s: s.kind == "orientable" and s.genus > 0 and s.punctures > 0, 1),
        ],
        ids=["klein-mcg-plus-5", "punctured-orientable-mcg-plus-1"],
    )
    def test_sweep_catches_a_mutated_table(self, monkeypatch, rule, mutated, shift):
        real = surfgroups.dims.dim_query

        def mutant(s, group, quantity):
            ans = real(s, group, quantity)
            # Pure and full groups share one table row, so the mutant moves both.
            if group in ("mcg", "pmcg") and quantity == "vcd" and ans.defined and mutated(s):
                return DimAnswer(quantity, group, ans.kind, ans.value + shift)
            return ans

        monkeypatch.setattr(surfgroups.dims, "dim_query", mutant)
        report = consistency_sweep(5, 5)
        assert not report.passed
        assert any(f.startswith(rule) for f in report.failures), report.failures

    def test_bound_arithmetic_instance(self):
        # g=3, k=1: 4g + k - 8 = 5 = (k + 1) + (4g - 9).
        ans = dim_query(SurfaceSpec("nonorientable", 3, 1), "mcg", "vcd")
        assert (ans.kind, ans.value) == ("bound", 5)

    def test_named_surface_normalization(self):
        assert SurfaceSpec.named("sphere") == SurfaceSpec("orientable", 0, 0)
        assert SurfaceSpec.named("torus") == SurfaceSpec("orientable", 1, 0)
        assert SurfaceSpec.named("projective-plane") == SurfaceSpec("nonorientable", 1, 0)
        assert SurfaceSpec.named("klein-bottle") == SurfaceSpec("nonorientable", 2, 0)
