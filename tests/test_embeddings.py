from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from surfgroups import embeddings
from surfgroups.embeddings import (
    DEFAULT_BALL_BOUND,
    MAT_I,
    PHI1_HOM,
    PHI1_IMAGE_ALPHA,
    PHI1_IMAGE_BETA,
    BallReport,
    IntMat2,
    KleinPoint,
    TorusPoint,
    certify_injectivity_ball,
    deck,
    induced_sl2,
    ker_phi_mcgk,
    lift_configuration,
    lift_matrices,
    phi1,
    phi1_closed_form,
    phi1_retract,
)
from surfgroups.klein import ALPHA, BETA, E1, E2, E3, E4, MCG_K, KleinElement, KleinEndo
from surfgroups.torusbraid import GEN_A, GEN_B, GEN_X, GEN_Y, IDENTITY, SIGMA, B2TElement, XY
from surfgroups.words import DomainError

from conftest import random_klein

F = Fraction


def product_ball(radius):
    """Slow oracle: A^r B^s by group products over the ball, where A and B
    are the images of al and be, as {(r, s): image}.  Each row starts from
    A^r B^-radius by square-and-multiply and steps by right-multiplying
    with B."""
    images = {}
    for r in range(-radius, radius + 1):
        img = PHI1_IMAGE_ALPHA ** r * PHI1_IMAGE_BETA ** -radius
        for s in range(-radius, radius + 1):
            images[r, s] = img
            img = img * PHI1_IMAGE_BETA
    return images


class TestPhi1:
    def test_relator_check_passes(self):
        assert PHI1_HOM.verify().passed

    def test_beta_squared_maps_to_b(self):
        assert phi1(KleinElement(0, 2)) == GEN_B

    def test_beta_image(self):
        assert phi1(BETA) == B2TElement(XY.parse("x*y*x^-1"), 0, 0, 1)

    def test_alpha_image(self):
        assert phi1(ALPHA) == B2TElement(XY.parse("x^2"), -1, 0, 0)

    def test_even_power_example(self):
        assert phi1(KleinElement(2, 4)) == B2TElement(XY.parse("x^4"), -2, 2, 0)

    def test_is_homomorphism(self, rng):
        for _ in range(2000):
            u, v = random_klein(rng), random_klein(rng)
            assert phi1(u * v) == phi1(u) * phi1(v)

    def test_parity_linkage(self, rng):
        for _ in range(200):
            u = random_klein(rng)
            assert phi1(u).eps == u.s % 2

    def test_matches_product_oracle_on_ball(self):
        for (r, s), image in product_ball(DEFAULT_BALL_BOUND).items():
            assert phi1(KleinElement(r, s)) == image


class TestClosedForm:
    def test_identity(self):
        assert phi1_closed_form(0, 0).is_identity()

    def test_beta_squared(self):
        assert phi1_closed_form(0, 2) == GEN_B

    def test_alpha(self):
        assert phi1_closed_form(1, 0) == B2TElement(XY.parse("x^2"), -1, 0, 0)

    def test_agrees_with_phi1_on_grid(self):
        """phi1 is the closed form, so compare with the homomorphism
        evaluated on the word al^r*be^s instead."""
        for r in range(-20, 21):
            for s in range(-20, 21):
                assert phi1_closed_form(r, s) == PHI1_HOM.evaluate(KleinElement(r, s).to_word())


class TestClosedFormCache:
    """The free parts of the closed form are built once per r and shared."""

    def test_one_build_per_row_of_the_certificate(self):
        embeddings._closed_form_words.cache_clear()
        assert certify_injectivity_ball(8).passed
        assert embeddings._closed_form_words.cache_info().misses == 17

    def test_free_parts_are_shared_per_r(self):
        assert phi1_closed_form(5, 0).w is phi1_closed_form(5, 2).w
        assert phi1_closed_form(5, 1).w is phi1_closed_form(5, -3).w

    @pytest.mark.parametrize("s", [-3, 0, 1, 4])
    @pytest.mark.parametrize("r", [65, -65, 10**6, -(10**6), 2**70])
    def test_agrees_with_phi1_beyond_the_cache_bound(self, r, s):
        assert phi1_closed_form(r, s) == PHI1_HOM.evaluate(KleinElement(r, s).to_word())

    def test_agrees_with_phi1_on_the_ball_after_eviction(self):
        words = embeddings._closed_form_words
        maxsize = words.cache_parameters()["maxsize"]
        R = DEFAULT_BALL_BOUND
        assert maxsize == 2 * R + 1
        words.cache_clear()
        for r in range(R + 1, R + 2 + maxsize):  # maxsize + 1 values off the ball
            phi1_closed_form(r, 0)
        assert words.cache_info().hits == 0
        for r in range(-R, R + 1):
            for s in range(-R, R + 1):
                assert phi1_closed_form(r, s) == PHI1_HOM.evaluate(KleinElement(r, s).to_word())
        assert words.cache_info().misses == maxsize + 1 + 2 * R + 1


BIG = 10**20
STEP_RS = [*range(-3, 4), BIG, -BIG]
STEP_SS = [*range(-4, 5), BIG, BIG + 1, -BIG, -BIG - 1]
HUGE = st.integers(-(10**30), 10**30)


class TestRetract:
    def test_round_trips_on_ball(self):
        R = DEFAULT_BALL_BOUND
        for r in range(-R, R + 1):
            for s in range(-R, R + 1):
                assert phi1_retract(phi1_closed_form(r, s)) == KleinElement(r, s)

    @given(HUGE, HUGE)
    @settings(max_examples=300)
    def test_round_trips_on_huge_exponents(self, r, s):
        assert phi1_retract(phi1_closed_form(r, s)) == KleinElement(r, s)

    @pytest.mark.parametrize(
        "g", [GEN_Y, SIGMA, GEN_X ** 3, GEN_A * GEN_B], ids=["y", "s", "x^3", "a*b"]
    )
    def test_none_outside_the_image(self, g):
        assert phi1_retract(g) is None

    @pytest.mark.parametrize("s", STEP_SS)
    @pytest.mark.parametrize("r", STEP_RS)
    def test_step_identities(self, r, s):
        """The induction steps of the proof in phi1_retract's docstring."""
        sign = -1 if s % 2 else 1
        cf = phi1_closed_form(r, s)
        assert cf * PHI1_IMAGE_ALPHA == phi1_closed_form(r + sign, s)
        assert cf * PHI1_IMAGE_BETA == phi1_closed_form(r, s + 1)
        assert cf * PHI1_IMAGE_ALPHA.inverse() == phi1_closed_form(r - sign, s)
        assert cf * PHI1_IMAGE_BETA.inverse() == phi1_closed_form(r, s - 1)


def per_element_ball(radius):
    """Slow oracle for the ball certificate: phi1 evaluated afresh for every
    element, in the same order and with the same key."""
    seen = {}
    collisions = []
    for r in range(-radius, radius + 1):
        for s in range(-radius, radius + 1):
            img = phi1(KleinElement(r, s))
            key = (img.w.syllables, img.m, img.n, img.eps)
            if key in seen:
                collisions.append((seen[key], (r, s)))
            else:
                seen[key] = (r, s)
    return len(seen), tuple(collisions)


class TestInjectivityBall:
    def test_radius_zero(self):
        report = certify_injectivity_ball(0)
        assert report.count == 1 and report.passed

    def test_radius_one(self):
        report = certify_injectivity_ball(1)
        assert report.count == 9 and not report.collisions

    def test_radius_twelve(self):
        report = certify_injectivity_ball(12)
        assert report.count == 625
        assert report.passed

    @pytest.mark.parametrize("radius", range(13))
    def test_matches_per_element_oracle(self, radius):
        report = certify_injectivity_ball(radius)
        assert (report.count, report.collisions) == per_element_ball(radius)

    @pytest.mark.parametrize(
        "name, image",
        [
            ("PHI1_IMAGE_ALPHA", IDENTITY),
            ("PHI1_IMAGE_ALPHA", GEN_B),
            ("PHI1_IMAGE_BETA", IDENTITY),
        ],
    )
    def test_matches_oracle_on_non_injective_images(self, monkeypatch, name, image):
        """Replace the closed form by the product map alpha^r beta^s with one
        generator image swapped for `image`, which is not injective."""
        images = {"PHI1_IMAGE_ALPHA": PHI1_IMAGE_ALPHA, "PHI1_IMAGE_BETA": PHI1_IMAGE_BETA}
        images[name] = image
        alpha, beta = images["PHI1_IMAGE_ALPHA"], images["PHI1_IMAGE_BETA"]
        monkeypatch.setattr(embeddings, "phi1_closed_form", lambda r, s: alpha ** r * beta ** s)
        for radius in (1, 5, 12):
            report = certify_injectivity_ball(radius)
            expected = per_element_ball(radius)
            assert expected[1]
            assert (report.count, report.collisions) == expected

    @pytest.mark.parametrize("radius", [5, 32, DEFAULT_BALL_BOUND])
    def test_one_product_per_element(self, monkeypatch, radius):
        calls = 0
        mul = B2TElement.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(B2TElement, "__mul__", counting_mul)
        assert certify_injectivity_ball(radius).passed
        assert calls == 0  # at most one per element; the closed form needs none

    def test_bound_enforced(self):
        with pytest.raises(DomainError, match="radius 100 exceeds configured bound 64"):
            certify_injectivity_ball(100)
        with pytest.raises(DomainError, match="exceeds configured bound"):
            certify_injectivity_ball(DEFAULT_BALL_BOUND + 1)


class TestLiftMatrices:
    def test_first_two_classes_map_to_identity(self):
        assert induced_sl2(E1) == MAT_I
        assert induced_sl2(E2) == MAT_I

    def test_last_two_classes_map_to_minus_identity(self):
        minus = IntMat2(-1, 0, 0, -1)
        assert induced_sl2(E3) == minus
        assert induced_sl2(E4) == minus

    def test_two_lifts_differ_by_sign(self):
        m1, m2 = lift_matrices(E3)
        assert m1 == IntMat2(1, 0, 0, -1)
        assert m2 == IntMat2(-1, 0, 0, -1)
        assert {m1.det(), m2.det()} == {1, -1}

    def test_even_beta_exponent_not_liftable(self):
        e = KleinEndo(ALPHA, KleinElement(0, 2))  # be -> be^2
        with pytest.raises(DomainError, match="even be-exponent 2; no lift exists"):
            lift_matrices(e)

    def test_alpha_image_must_be_alpha_power(self):
        e = KleinEndo(KleinElement(1, 1), BETA)
        with pytest.raises(DomainError, match="image of al must be a power of al"):
            lift_matrices(e)

    def test_non_automorphism_rejected_for_sl2(self):
        e = KleinEndo(KleinElement(2, 0), BETA)  # al -> al^2
        with pytest.raises(DomainError, match=r"SL\(2, Z\) image requires \|r\| = \|v\| = 1"):
            induced_sl2(e)

    @pytest.mark.parametrize("ea", [1, -1])
    @pytest.mark.parametrize("eb", [1, -1])
    @pytest.mark.parametrize("u", range(-3, 4))
    def test_agrees_with_direct_action_on_index_two_subgroup(self, ea, u, eb):
        """<al, be^2> is the torus group, with a -> al and b -> be^2.  The
        degree-1 lift is the automorphism's action on it, with the sign of
        the a row chosen to make the determinant +1."""
        e = KleinEndo(KleinElement(ea, 0), KleinElement(u, eb))
        assert e.verify()
        image_a, image_b = e(ALPHA), e(BETA * BETA)
        assert image_a.s % 2 == 0 and image_b.s % 2 == 0  # both stay in the subgroup
        direct = IntMat2(image_a.r, image_b.r, image_a.s // 2, image_b.s // 2)
        m = induced_sl2(e)
        assert m.det() == 1
        assert m in (direct, IntMat2(-direct.a, -direct.b, direct.c, direct.d))

    def test_functoriality_on_the_four_group(self):
        for e in MCG_K:
            for f in MCG_K:
                assert induced_sl2(e.compose(f)) == induced_sl2(e) * induced_sl2(f)

    def test_kernel(self):
        kernel = ker_phi_mcgk()
        assert len(kernel) == 2
        assert E1 in kernel and E2 in kernel
        assert E3 not in kernel and E4 not in kernel


class TestConfigurationLifting:
    def test_quarter_point(self):
        lifted = lift_configuration([KleinPoint(F(1, 4), F(0))])
        assert set(lifted) == {TorusPoint(F(1, 4), F(0)), TorusPoint(F(3, 4), F(0))}

    def test_half_height_point(self):
        lifted = lift_configuration([KleinPoint(F(0), F(1, 2))])
        assert set(lifted) == {TorusPoint(F(0), F(1, 2)), TorusPoint(F(1, 2), F(1, 2))}

    def test_empty_configuration(self):
        assert lift_configuration([]) == []

    def test_duplicates_rejected(self):
        p = KleinPoint(F(1, 8), F(1, 3))
        with pytest.raises(DomainError, match="points must be pairwise distinct"):
            lift_configuration([p, p])

    def test_domain_enforced(self):
        with pytest.raises(DomainError, match=r"Klein point \(1/2, 0\) outside"):
            KleinPoint(F(1, 2), F(0))
        with pytest.raises(DomainError, match=r"torus point \(0, 1\) outside"):
            TorusPoint(F(0), F(1))

    def test_deck_is_an_involution(self, rng):
        for _ in range(1000):
            p = TorusPoint(
                F(rng.randint(0, 30), 31), F(rng.randint(0, 30), 31)
            )
            assert deck(deck(p)) == p
            assert deck(p) != p  # the involution is free

    def test_random_configurations(self, rng):
        for _ in range(100):
            k = rng.randint(1, 8)
            points = set()
            while len(points) < k:
                points.add(
                    KleinPoint(
                        F(rng.randint(0, 12), 26), F(rng.randint(0, 25), 26)
                    )
                )
            lifted = lift_configuration(sorted(points))
            assert len(lifted) == 2 * k
            assert len(set(lifted)) == 2 * k
            assert {deck(p) for p in lifted} == set(lifted)  # iota-invariant
