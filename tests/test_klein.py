import pytest
from hypothesis import given, strategies as st

from surfgroups.klein import (
    ALPHA,
    BETA,
    E1,
    E2,
    E3,
    E4,
    KLEIN_ALPHABET,
    KLEIN_IDENTITY,
    MCG_K,
    KleinElement,
    KleinEndo,
    from_word,
    mcg_compose,
    klein_rewrite_rules,
)
from surfgroups.words import DomainError, oracle_normal_form

from conftest import commutes_with, random_klein

elements = st.builds(KleinElement, st.integers(-20, 20), st.integers(-20, 20))


class TestMultiplication:
    def test_twisted_product(self):
        assert KleinElement(1, 1) * KleinElement(2, 1) == KleinElement(-1, 2)

    def test_identity(self):
        assert KleinElement(3, -2) * KLEIN_IDENTITY == KleinElement(3, -2)

    def test_beta_squared_commutes_past_alpha(self):
        assert KleinElement(0, 2) * KleinElement(5, 0) == KleinElement(5, 2)

    @given(elements, elements, elements)
    def test_associativity(self, u, v, t):
        assert (u * v) * t == u * (v * t)

    def test_matches_rewrite_oracle(self, rng):
        rules = klein_rewrite_rules()
        for _ in range(2000):
            u, v = random_klein(rng), random_klein(rng)
            word = u.to_word() * v.to_word()
            assert (u * v).to_word() == oracle_normal_form(rules, word)

    def test_from_word_round_trip(self, rng):
        for _ in range(200):
            u = random_klein(rng)
            assert from_word(KLEIN_ALPHABET.parse(str(u))) == u


class TestInverse:
    def test_identity(self):
        assert KLEIN_IDENTITY.inverse() == KLEIN_IDENTITY

    def test_alpha(self):
        assert KleinElement(1, 0).inverse() == KleinElement(-1, 0)

    def test_twisted_case(self):
        assert KleinElement(1, 1).inverse() == KleinElement(1, -1)

    @given(elements)
    def test_inverse_law(self, u):
        assert (u * u.inverse()).is_identity()
        assert u.inverse().inverse() == u


class TestCenter:
    def test_beta_squared_central(self):
        assert KleinElement(0, 2).is_central()

    def test_beta_not_central(self):
        assert not KleinElement(0, 1).is_central()

    def test_identity_central(self):
        assert KLEIN_IDENTITY.is_central()

    def test_center_characterization(self, rng):
        probes = [random_klein(rng) for _ in range(50)]
        for u in [random_klein(rng, 6) for _ in range(100)]:
            # Commuting with both generators is equivalent to centrality.
            expected = commutes_with(u, ALPHA) and commutes_with(u, BETA)
            assert u.is_central() == expected
            if u.is_central():
                assert all(commutes_with(u, p) for p in probes)


class TestEndos:
    def test_all_shipped_verify(self):
        for e in MCG_K:
            assert e.verify()

    def test_e2_fixes_beta_squared(self):
        assert E2(KleinElement(0, 2)) == KleinElement(0, 2)

    def test_identity_composition(self):
        assert E1.compose(E1) == E1

    def test_klein_four_group(self):
        assert len(set(MCG_K)) == 4
        for e in MCG_K:
            assert mcg_compose(e, e) == E1  # every class has order <= 2
            for f in MCG_K:
                assert mcg_compose(e, f) in MCG_K  # closed

    def test_raw_composition_is_inner_equivalent(self):
        # E2 . E2 fixes al and sends be to al^2*be, which is conjugation
        # by al; its outer class is trivial.
        raw = E2.compose(E2)
        assert raw.image_beta == KleinElement(2, 1)
        assert raw.outer_class() == E1

    def test_outer_class_rejects_non_automorphisms(self):
        with pytest.raises(ValueError) as raised:
            KleinEndo(KleinElement(2, 0), BETA).outer_class()
        assert not isinstance(raised.value, DomainError)  # an invariant, not a refusal

    def test_apply_is_multiplicative(self, rng):
        for e in MCG_K:
            for _ in range(100):
                u, v = random_klein(rng), random_klein(rng)
                assert e(u * v) == e(u) * e(v)

    def test_non_endomorphism_detected(self):
        bad = KleinEndo(ALPHA, ALPHA)  # be -> al maps the relator to al^3
        assert not bad.verify()
