import pytest
from hypothesis import example, given, settings, strategies as st

from surfgroups.torusbraid import (
    B2T_ALPHABET,
    B2T_IMAGES,
    B_INV_WORD,
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
    U_INV_WORD,
    U_WORD,
    B2TElement,
    conjugate_by_sigma,
    from_word,
    PRESENTATIONS,
    PRESENTATION_HOMS,
    p2t_central_rules,
    verify_all_presentations,
)
from surfgroups.words import (
    Alphabet,
    DomainError,
    FreeWord,
    NormalFormTooLarge,
    Presentation,
    commutator,
    oracle_normal_form,
    power,
)

from conftest import (
    deadline,
    failures,
    letters,
    random_b2t,
    random_long_exponent_word,
    random_word,
)

b2t_elements = st.builds(
    B2TElement,
    st.lists(st.tuples(st.sampled_from(["x", "y"]), st.integers(-2, 2)), max_size=8).map(
        XY.word
    ),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(0, 1),
)


def p2t(w, m: int = 0, n: int = 0) -> B2TElement:
    """An element of the pure braid group (the eps = 0 slice)."""
    return B2TElement(w, m, n, 0)


def test_eps_outside_0_1_is_an_invariant_not_a_refusal():
    with pytest.raises(ValueError, match="eps must be 0 or 1, got 2") as raised:
        B2TElement(IDENTITY.w, 0, 0, 2)
    assert not isinstance(raised.value, DomainError)


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


class TestClosedForms:
    """`**` and `inverse()` against their slow oracles: `words.power` and the
    product-form inverse s^-1 * (w^-1, -m, -n, 0)."""

    @staticmethod
    def product_form_inverse(g):
        pure_inv = B2TElement(g.w.inverse(), -g.m, -g.n, 0)
        return SIGMA_INV * pure_inv if g.eps else pure_inv

    def test_power_matches_square_and_multiply(self, rng):
        for eps in (0, 1):
            for _ in range(1000):
                g = random_b2t(rng, word_len=rng.choice([0, 1, 2, 6, 16]))
                g = B2TElement(g.w, g.m, g.n, eps)
                k = rng.randint(-9, 9)
                assert g ** k == power(g, k, IDENTITY)

    def test_inverse_matches_product_form(self, rng):
        for eps in (0, 1):
            for _ in range(1000):
                g = random_b2t(rng, word_len=rng.choice([0, 1, 2, 6, 16]))
                g = B2TElement(g.w, g.m, g.n, eps)
                assert g.inverse() == self.product_form_inverse(g)

    def test_from_word_reaches_the_closed_form(self, rng):
        for _ in range(200):
            gen, k = rng.choice("xyabsB"), rng.randint(-40, 40)
            expected = power(B2T_IMAGES[gen], k, IDENTITY)
            assert from_word(B2T_ALPHABET.word([(gen, k)])) == expected

    def test_a_power_builds_no_square_it_does_not_need(self):
        """g fits the budget and g * g does not; g^1, g^-1 and g^0 need no
        square."""
        g = B2TElement(XY.parse("x*y") ** 300_000, 0, 0, 1)
        with pytest.raises(NormalFormTooLarge):
            g * g
        assert g ** 1 == g
        assert g ** -1 == g.inverse()
        assert g ** 0 == IDENTITY

    def test_near_budget_power_and_inverse_finish(self):
        with deadline(2.0):
            g = SIGMA ** 499_999
            assert g == from_word(B2T_ALPHABET.parse("s^499999"))
            assert (g * g.inverse()).is_identity()
        with deadline(1.0), pytest.raises(NormalFormTooLarge, match="have 4000000 syllables"):
            SIGMA ** 2_000_001


class TestCenter:
    def test_a_and_b_central(self):
        assert GEN_A.is_central()
        assert GEN_B.is_central()

    def test_x_not_central(self):
        assert not GEN_X.is_central()

    def test_sigma_not_central(self):
        assert not SIGMA.is_central()

    def test_center_is_exactly_the_central_lattice(self, rng):
        """The closed form against the products: u is central iff it commutes
        with every generator.  Free parts are often empty, so that about a
        third of the elements are central and eps alone decides many."""
        generators = (GEN_X, GEN_Y, GEN_A, GEN_B, SIGMA)
        central = 0
        for _ in range(2000):
            u = random_b2t(rng, word_len=rng.choice([0, 0, 2, 6]))
            expected = all(u * g == g * u for g in generators)
            assert u.is_central() == expected
            central += expected
        assert 400 < central < 1600

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
    for letter in letters(w):
        img, da, db = table[letter]
        result = result * img
        dm += da
        dn += db
    return result, dm, dn


def summed_exponents(w):
    """The two generator-expression sums that `_exponent_sums` replaced."""
    i = sum(k for name, k in w.syllables if name == "x")
    j = sum(k for name, k in w.syllables if name == "y")
    return i, j


def negating_conjugate(w):
    """conjugate_by_sigma as it negated each syllable into a new tuple."""
    flipped = FreeWord(XY, tuple((name, -k) for name, k in w.syllables))
    return (U_WORD * flipped * U_INV_WORD, *summed_exponents(w))


def summing_eps1_inverse(g):
    """The eps = 1 inverse as it summed the exponents by two expressions."""
    i, j = summed_exponents(g.w)
    rev = FreeWord(XY, g.w.syllables[::-1])
    return B2TElement(B_INV_WORD * U_WORD * rev * U_INV_WORD, -g.m - i, -g.n - j, 1)


class TestNegationOracles:
    """The shared-syllable negation and the one-pass exponent sums against
    the forms they replaced."""

    def test_conjugate_and_eps1_inverse_match_their_oracles(self, rng):
        for _ in range(2000):
            w = random_long_exponent_word(rng)
            assert conjugate_by_sigma(w) == negating_conjugate(w)
            g = B2TElement(w, rng.randint(-10**12, 10**12), rng.randint(-8, 8), 1)
            assert g.inverse() == summing_eps1_inverse(g)

    def test_conjugate_shares_one_tuple_per_distinct_syllable(self, rng):
        """12 distinct syllables, plus at most the 4 syllables of u = x*y^-1
        and u^-1 at the seams, or the merged syllables that replace them."""
        w = XY.word((("x", "y")[k % 2], rng.choice([-3, -2, -1, 1, 2, 3])) for k in range(10_000))
        conj, _, _ = conjugate_by_sigma(w)
        assert len(conj.syllables) >= 9_996
        assert len({id(syl) for syl in conj.syllables}) <= 12 + 4


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


def oracle_b2t_presentation():
    """The six-generator presentation of the full group, as in the paper."""
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


ORACLE_B2T_IMAGES = {
    "x": GEN_X, "y": GEN_Y, "a": GEN_A, "b": GEN_B, "s": SIGMA, "B": FULL_TWIST,
}

# rho_{1,1} -> x, rho_{1,2} -> y, rho_{2,1} -> B x^-1 a, rho_{2,2} -> B y^-1 b.
ORACLE_RHO_IMAGES = {
    "B": FULL_TWIST,
    "r11": GEN_X,
    "r12": GEN_Y,
    "r21": FULL_TWIST * GEN_X.inverse() * GEN_A,
    "r22": FULL_TWIST * GEN_Y.inverse() * GEN_B,
}


def oracle_rho_presentation():
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


def oracle_useful_relators():
    """r21 B r21^-1 = B r11^-1 B r11 B^-1 and r22 B r22^-1 = B r12^-1 B r12 B^-1."""
    al = oracle_rho_presentation().alphabet
    B = al.gen("B")
    out = []
    for top, side in (("r21", "r11"), ("r22", "r12")):
        t, s = al.gen(top), al.gen(side)
        rhs = B * s.inverse() * B * s * B.inverse()
        out.append(t * B * t.inverse() * rhs.inverse())
    return out


# d11 = r11, t11 = r12, d21 = B^-1 r21 -> x^-1 a, t21 = B^-1 r22 -> y^-1 b.
ORACLE_DELTA_TAU_IMAGES = {
    "B": FULL_TWIST,
    "d11": GEN_X,
    "t11": GEN_Y,
    "d21": GEN_X.inverse() * GEN_A,
    "t21": GEN_Y.inverse() * GEN_B,
}


def oracle_delta_tau_presentation():
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


def oracle_presentations():
    """The shipped presentations built from commutators and products, as in
    the paper: report name -> (presentation, generator images)."""
    rho = oracle_rho_presentation()
    return {
        "surface_generators": (
            Presentation(rho.alphabet, rho.relators + tuple(oracle_useful_relators())),
            ORACLE_RHO_IMAGES,
        ),
        "delta_tau": (oracle_delta_tau_presentation(), ORACLE_DELTA_TAU_IMAGES),
        "full_group": (oracle_b2t_presentation(), ORACLE_B2T_IMAGES),
    }


class TestPresentations:
    def test_full_group_relations(self):
        report = verify_all_presentations()["full_group"]
        assert report.passed, failures(report)

    def test_surface_generator_relations_and_useful_relations(self):
        report = verify_all_presentations()["surface_generators"]
        assert report.passed, failures(report)
        # Five presentation relations (one split into two relators) plus the
        # two derived relations.
        assert len(report.results) == 8

    def test_intermediate_relations(self):
        report = verify_all_presentations()["delta_tau"]
        assert report.passed, failures(report)

    def test_all_reports(self):
        reports = verify_all_presentations()
        assert set(reports) == {"surface_generators", "delta_tau", "full_group"}
        assert list(reports) == ["surface_generators", "delta_tau", "full_group"]
        assert all(rep.passed for rep in reports.values())

    @pytest.mark.parametrize("name", ["surface_generators", "delta_tau", "full_group"])
    def test_table_matches_oracle(self, name):
        presentation, images = oracle_presentations()[name]
        hom = PRESENTATION_HOMS[name]
        assert hom.source.alphabet == presentation.alphabet
        assert hom.source.relators == presentation.relators
        assert hom.images == images

    def test_relator_texts_are_printed_form(self):
        for images, relators in PRESENTATIONS.values():
            presentation = Presentation.parse(Alphabet.of(*images), relators)
            assert [str(r) for r in presentation.relators] == relators


def syllable_text_oracle(e: B2TElement) -> str:
    """An independent printer: the free part, then a^m, b^n and s where nonzero."""
    parts = []
    if not e.w.is_identity():
        parts.append(str(e.w))
    if e.m:
        parts.append("a" if e.m == 1 else f"a^{e.m}")
    if e.n:
        parts.append("b" if e.n == 1 else f"b^{e.n}")
    if e.eps:
        parts.append("s")
    return "*".join(parts) if parts else "1"


class TestPrinting:
    def test_identity(self):
        assert str(IDENTITY) == "1"

    def test_matches_oracle(self, rng):
        exponents = [0, 1, -1, 7, -7]
        for _ in range(2000):
            e = B2TElement(
                random_word(rng, XY, rng.choice([0, 4])),
                rng.choice(exponents),
                rng.choice(exponents),
                rng.randint(0, 1),
            )
            assert str(e) == syllable_text_oracle(e)


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
