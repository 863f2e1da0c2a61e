import pytest
from hypothesis import example, given, settings, strategies as st

from surfgroups.torusbraid import (
    B2T_ALPHABET,
    B_WORD,
    FULL_TWIST,
    GEN_A,
    GEN_B,
    GEN_X,
    GEN_Y,
    IDENTITY,
    P2T_ALPHABET,
    SIGMA,
    SIGMA_INV,
    XY,
    B2TElement,
    conjugate_by_sigma,
    from_word,
    p2t,
    p2t_central_rules,
    verify_all_presentations,
    verify_presentation_b2t,
    verify_presentation_delta_tau,
    verify_presentation_rho,
)
from surfgroups.words import oracle_normal_form

from conftest import random_b2t, random_word

b2t_elements = st.builds(
    B2TElement,
    st.lists(st.tuples(st.sampled_from(["x", "y"]), st.integers(-2, 2)), max_size=8).map(
        XY.word
    ),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(0, 1),
)


class TestMultiplication:
    def test_sigma_squared_is_full_twist(self):
        assert SIGMA * SIGMA == FULL_TWIST
        assert FULL_TWIST.w == B_WORD

    def test_pure_slice_concatenates(self):
        assert GEN_X * GEN_Y == p2t(XY.parse("x*y"))

    def test_sigma_conjugation_of_x(self):
        assert SIGMA * GEN_X * SIGMA.inverse() == B2TElement(
            B_WORD * XY.parse("x^-1"), 1, 0, 0
        )

    def test_sigma_conjugation_of_y(self):
        assert SIGMA * GEN_Y * SIGMA.inverse() == B2TElement(
            B_WORD * XY.parse("y^-1"), 0, 1, 0
        )

    @given(b2t_elements, b2t_elements, b2t_elements)
    @settings(max_examples=200)
    def test_associativity(self, u, v, t):
        assert (u * v) * t == u * (v * t)

    def test_group_axioms_on_random_triples(self, rng):
        for _ in range(2000):
            u, v, t = (random_b2t(rng) for _ in range(3))
            assert (u * v) * t == u * (v * t)
            assert (u * u.inverse()).is_identity()
            assert u * IDENTITY == u

    def test_parity_is_a_morphism(self, rng):
        for _ in range(500):
            u, v = random_b2t(rng), random_b2t(rng)
            assert (u * v).eps == u.eps ^ v.eps


class TestInverse:
    def test_identity(self):
        assert IDENTITY.inverse() == IDENTITY

    def test_sigma_inverse_canonical_form(self):
        inv = SIGMA.inverse()
        assert inv == SIGMA_INV
        assert inv.w == XY.parse("y^-1*x*y*x^-1")
        assert (SIGMA * inv).is_identity()

    def test_central_part(self):
        assert p2t(XY.identity(), 3, -2).inverse() == p2t(XY.identity(), -3, 2)

    @given(b2t_elements)
    @settings(max_examples=200)
    def test_inverse_law(self, u):
        assert (u * u.inverse()).is_identity()
        assert (u.inverse() * u).is_identity()


class TestCenter:
    def test_a_and_b_central(self):
        assert GEN_A.is_central()
        assert GEN_B.is_central()

    def test_x_not_central(self):
        assert not GEN_X.is_central()

    def test_sigma_not_central(self):
        assert not SIGMA.is_central()

    def test_center_is_exactly_the_central_lattice(self, rng):
        for _ in range(200):
            u = random_b2t(rng, word_len=6)
            expected = u.w.is_identity() and u.eps == 0
            assert u.is_central() == expected

    def test_central_lattice_commutes_with_random_elements(self, rng):
        for _ in range(500):
            z = p2t(XY.identity(), rng.randint(-8, 8), rng.randint(-8, 8))
            u = random_b2t(rng)
            assert z * u == u * z


def letterwise_conjugate(w):
    """The letter-by-letter loop that conjugate_by_sigma replaced."""
    x, y = XY.gen("x"), XY.gen("y")
    table = {
        ("x", 1): (B_WORD * x.inverse(), 1, 0),
        ("x", -1): (x * B_WORD.inverse(), -1, 0),
        ("y", 1): (B_WORD * y.inverse(), 0, 1),
        ("y", -1): (y * B_WORD.inverse(), 0, -1),
    }
    result = XY.identity()
    dm = dn = 0
    for letter in w.letters():
        img, da, db = table[letter]
        result = result * img
        dm += da
        dn += db
    return result, dm, dn


@st.composite
def conjugation_inputs(draw):
    """Words with exponents up to +-1000, some of the form u * v * u^-1 so
    that the conjugated pieces cancel heavily."""
    syllables = st.lists(
        st.tuples(
            st.sampled_from(["x", "y"]),
            st.one_of(st.integers(-3, 3), st.integers(-1000, 1000)),
        ),
        max_size=8,
    )
    u, v = XY.word(draw(syllables)), XY.word(draw(syllables))
    return u * v * u.inverse() if draw(st.booleans()) else u


class TestSigmaConjugation:
    def test_is_automorphism_of_pure_slice(self, rng):
        for _ in range(500):
            u, v = p2t(random_word(rng, XY)), p2t(random_word(rng, XY))
            conj = lambda e: SIGMA * e * SIGMA_INV
            assert conj(u * v) == conj(u) * conj(v)

    def test_conjugating_twice_is_full_twist_conjugation(self, rng):
        for _ in range(200):
            u = p2t(random_word(rng, XY))
            twice = SIGMA * (SIGMA * u * SIGMA_INV) * SIGMA_INV
            assert twice == FULL_TWIST * u * FULL_TWIST.inverse()

    def test_fixes_central_generators(self):
        assert SIGMA * GEN_A * SIGMA_INV == GEN_A
        assert SIGMA * GEN_B * SIGMA_INV == GEN_B

    def test_letter_table_matches_engine(self):
        for gen in (GEN_X, GEN_Y):
            word, dm, dn = conjugate_by_sigma(gen.w)
            assert SIGMA * gen * SIGMA_INV == B2TElement(word, dm, dn, 0)

    @given(conjugation_inputs())
    @example(XY.parse("x^1000"))
    @example(XY.parse("y^-1000"))
    @example(XY.parse("x^1000*y^-1000*x^-1000*y^1000"))
    @example(XY.parse("x^-999*y*x^999"))
    @example(XY.identity())
    @example(B_WORD)
    @settings(max_examples=100, deadline=None)
    def test_matches_letterwise_loop(self, w):
        assert conjugate_by_sigma(w) == letterwise_conjugate(w)


class TestPresentations:
    def test_full_group_relations(self):
        report = verify_presentation_b2t()
        assert report.passed, report.failures()

    def test_surface_generator_relations_and_useful_relations(self):
        report = verify_presentation_rho()
        assert report.passed, report.failures()
        # Five presentation relations (one split into two relators) plus the
        # two derived relations.
        assert len(report.results) == 8

    def test_intermediate_relations(self):
        report = verify_presentation_delta_tau()
        assert report.passed, report.failures()

    def test_all_reports(self):
        reports = verify_all_presentations()
        assert set(reports) == {"surface_generators", "delta_tau", "full_group"}
        assert all(rep.passed for rep in reports.values())


class TestWordParsing:
    def test_full_twist_expands(self):
        assert from_word(B2T_ALPHABET.parse("B")) == FULL_TWIST

    def test_sigma_squared_normal_form(self):
        elem = from_word(B2T_ALPHABET.parse("s*s"))
        assert elem == FULL_TWIST
        assert str(elem.w) == "x*y^-1*x^-1*y"

    def test_round_trip(self, rng):
        for _ in range(200):
            u = random_b2t(rng)
            assert from_word(B2T_ALPHABET.parse(str(u))) == u

    def test_pure_alphabet_rejects_sigma(self):
        from surfgroups.words import WordParseError

        with pytest.raises(WordParseError):
            P2T_ALPHABET.parse("s")

    def test_pure_normal_form_matches_rewrite_oracle(self, rng):
        rules = p2t_central_rules()
        for _ in range(100):
            text_parts = []
            for _ in range(rng.randint(1, 8)):
                gen = rng.choice(["x", "y", "a", "b"])
                text_parts.append(f"{gen}^{rng.choice([-2, -1, 1, 2])}")
            text = "*".join(text_parts)
            elem = from_word(P2T_ALPHABET.parse(text))
            oracle = oracle_normal_form(p2t_central_rules(), P2T_ALPHABET.parse(text))
            expected = P2T_ALPHABET.parse(str(elem)) if not elem.is_identity() else P2T_ALPHABET.identity()
            assert oracle == expected
