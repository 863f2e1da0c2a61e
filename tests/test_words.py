import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from surfgroups.klein import (
    KLEIN_ALPHABET,
    KLEIN_IDENTITY,
    KLEIN_PRESENTATION,
    from_word,
    klein_rewrite_rules,
)
from surfgroups.torusbraid import IDENTITY as B2T_IDENTITY
from surfgroups.torusbraid import P2T_ALPHABET, p2t_central_rules
from surfgroups.words import (
    DEFAULT_NF_BUDGET,
    Alphabet,
    AlphabetMismatch,
    FreeWord,
    GroupHom,
    NormalFormTooLarge,
    Presentation,
    RewriteBudgetExceeded,
    RewriteRule,
    UnknownGenerator,
    WordError,
    WordParseError,
    fold,
    oracle_normal_form,
    parse_word,
    reduce_syllables,
)

from conftest import random_b2t, random_klein, random_word

AB = Alphabet.of("x", "y")


def w(text: str) -> FreeWord:
    return AB.parse(text)


class TestReduce:
    def test_simple_cancellation(self):
        assert AB.word([("x", 1), ("x", -1)]).is_identity()

    def test_nested_cancellation(self):
        assert AB.word([("x", 1), ("y", 1), ("y", -1), ("x", 1)]) == w("x^2")

    def test_already_reduced_commutator(self):
        comm = AB.word([("x", 1), ("y", -1), ("x", -1), ("y", 1)])
        assert comm.syllables == (("x", 1), ("y", -1), ("x", -1), ("y", 1))

    def test_idempotent(self):
        word = w("x^3*y^-2*x*y")
        assert reduce_syllables(word.syllables) == word.syllables

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            AB.word([("z", 1)])


syllable_lists = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.integers(-4, 4)), max_size=20
)


big_exponents = st.one_of(st.integers(-3, 3), st.integers(-1000, 1000))
big_syllable_lists = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), big_exponents), max_size=12
)


@st.composite
def seam_pairs(draw):
    """(u, v) where v opens with the inverse of a tail of u, so u * v cancels
    that tail and then possibly merges one more syllable."""
    u = AB.word(draw(big_syllable_lists))
    cut = draw(st.integers(0, len(u.syllables)))
    return u, AB.word(list(u.inverse().syllables[:cut]) + draw(big_syllable_lists))


class TestSeamProduct:
    @given(seam_pairs())
    @example((w("x^1000*y^-1000"), w("y^1000*x^-999")))
    @example((w("x*y^2*x^-1"), w("x*y^-2*x^-1")))
    @example((w("x^1000*y^-1000"), w("y^1000*x^-1000")))
    @example((AB.identity(), w("y^-1000")))
    @example((w("x^-1000"), AB.identity()))
    @settings(max_examples=300, deadline=None)
    def test_matches_reducing_the_concatenation(self, pair):
        u, v = pair
        assert (u * v).syllables == reduce_syllables(u.syllables + v.syllables)

    def test_normal_form_budget(self):
        comm = w("x*y^-1*x^-1*y")
        with pytest.raises(NormalFormTooLarge, match=f"budget of {DEFAULT_NF_BUDGET}"):
            comm ** (DEFAULT_NF_BUDGET // 4 + 1)
        assert len((comm ** (DEFAULT_NF_BUDGET // 4)).syllables) == DEFAULT_NF_BUDGET


class TestGroupLaws:
    def test_multiply_powers(self):
        assert w("x^2") * w("x^-1") == w("x")

    def test_invert_reduced_word(self):
        comm = w("x") * w("y^-1") * w("x^-1") * w("y")
        assert comm.inverse() == w("y^-1") * w("x") * w("y") * w("x^-1")

    def test_identity_law(self):
        word = w("x*y^2*x^-1")
        assert AB.identity() * word == word

    def test_alphabet_mismatch(self):
        other = Alphabet.of("a", "b")
        with pytest.raises(AlphabetMismatch):
            w("x") * other.parse("a")

    @given(syllable_lists, syllable_lists, syllable_lists)
    def test_associativity(self, ra, rb, rc):
        a, b, c = AB.word(ra), AB.word(rb), AB.word(rc)
        assert (a * b) * c == a * (b * c)

    @given(syllable_lists)
    def test_inverse_laws(self, raw):
        u = AB.word(raw)
        assert (u * u.inverse()).is_identity()
        assert u.inverse().inverse() == u

    def test_laws_on_long_random_words(self, rng):
        for _ in range(1000):
            raw = [
                (rng.choice("xy"), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(0, 64))
            ]
            u = AB.word(raw)
            v = AB.word(raw[::-1])
            assert (u * u.inverse()).is_identity()
            assert ((u * v) * u) == (u * (v * u))

    def test_reduction_confluent_under_shuffle(self, rng):
        # Reducing any bracketing/order of the same letter sequence agrees.
        for _ in range(200):
            raw = [(rng.choice("xy"), rng.choice([-1, 1])) for _ in range(24)]
            full = AB.word(raw)
            cut = rng.randint(0, len(raw))
            assert AB.word(raw[:cut]) * AB.word(raw[cut:]) == full


@dataclass(frozen=True)
class AddZ:
    """The integers under addition, with only the operations GroupHom needs."""

    k: int

    def __mul__(self, other: "AddZ") -> "AddZ":
        return AddZ(self.k + other.k)

    def inverse(self) -> "AddZ":
        return AddZ(-self.k)

    def is_identity(self) -> bool:
        return self.k == 0


class TestPowerAndFold:
    def test_pow_matches_repeated_multiplication(self, rng):
        for _ in range(10):
            for x, one in (
                (random_word(rng, AB), AB.identity()),
                (random_klein(rng), KLEIN_IDENTITY),
                (random_b2t(rng), B2T_IDENTITY),
            ):
                for n in range(-6, 7):
                    step = x if n >= 0 else x.inverse()
                    expected = one
                    for _ in range(abs(n)):
                        expected = expected * step
                    assert x ** n == expected
                    assert (x ** n * x ** -n).is_identity()

    def test_fold_multiplies_powers_in_order(self):
        images = {"x": AddZ(2), "y": AddZ(-3)}
        assert fold(images, AddZ(0), ()) == AddZ(0)
        assert fold(images, AddZ(0), w("x^3*y^-2*x^-1").syllables) == AddZ(10)
        swap = {"x": w("y"), "y": w("x")}  # a non-abelian target sees the order
        assert fold(swap, AB.identity(), w("x^3*y^-2*x^-1").syllables) == w("y^3*x^-2*y^-1")

    def test_hom_into_target_without_pow(self):
        pres = Presentation.parse(AB, ["x*y*x^-1*y^-1"])
        hom = GroupHom(pres, {"x": AddZ(2), "y": AddZ(-3)}, identity=AddZ(0))
        assert hom.evaluate(w("x^3*y^-2*x^-1")) == AddZ(10)
        assert hom.verify().passed


class TestParsing:
    def test_round_trip(self):
        for text in ["1", "x", "x^-1", "x^2*y^-3*x"]:
            word = w(text)
            assert AB.parse(str(word)) == word

    def test_whitespace_tolerated(self):
        assert AB.parse(" x * y^-1 ") == w("x*y^-1")

    def test_error_carries_token_and_column(self):
        with pytest.raises(WordParseError) as exc:
            AB.parse("x*zz^2")
        assert exc.value.token == "zz"
        assert exc.value.column == 3

    def test_dangling_separator(self):
        with pytest.raises(WordParseError):
            AB.parse("x*")

    def test_empty_input(self):
        with pytest.raises(WordParseError):
            parse_word("", AB)


class TestHom:
    def test_identity_word_maps_to_identity(self):
        hom = GroupHom(
            KLEIN_PRESENTATION,
            {"al": from_word(KLEIN_ALPHABET.parse("al")), "be": from_word(KLEIN_ALPHABET.parse("be"))},
            identity=KLEIN_IDENTITY,
        )
        assert hom.evaluate(KLEIN_ALPHABET.identity()).is_identity()

    def test_beta_inversion_is_endomorphism(self):
        hom = GroupHom(
            KLEIN_PRESENTATION,
            {
                "al": from_word(KLEIN_ALPHABET.parse("al")),
                "be": from_word(KLEIN_ALPHABET.parse("be^-1")),
            },
            identity=KLEIN_IDENTITY,
        )
        assert hom.verify().passed

    def test_wrong_map_fails_relator(self):
        alpha = from_word(KLEIN_ALPHABET.parse("al"))
        hom = GroupHom(KLEIN_PRESENTATION, {"al": alpha, "be": alpha}, identity=KLEIN_IDENTITY)
        report = hom.verify()
        assert not report.passed
        assert report.failures() == ["al*be*al*be^-1"]

    def test_stray_image_rejected(self):
        alpha = from_word(KLEIN_ALPHABET.parse("al"))
        with pytest.raises(WordError, match="zz"):
            GroupHom(
                KLEIN_PRESENTATION,
                {"al": alpha, "be": alpha, "zz": alpha},
                identity=KLEIN_IDENTITY,
            )

    def test_missing_image_rejected(self):
        with pytest.raises(Exception):
            GroupHom(KLEIN_PRESENTATION, {"al": KLEIN_IDENTITY}, identity=KLEIN_IDENTITY)

    def test_multiplicative_on_random_pairs(self, rng):
        hom = GroupHom(
            KLEIN_PRESENTATION,
            {
                "al": from_word(KLEIN_ALPHABET.parse("al")),
                "be": from_word(KLEIN_ALPHABET.parse("al*be")),
            },
            identity=KLEIN_IDENTITY,
        )
        for _ in range(500):
            raw_u = [(rng.choice(["al", "be"]), rng.choice([-2, -1, 1, 2])) for _ in range(8)]
            raw_v = [(rng.choice(["al", "be"]), rng.choice([-2, -1, 1, 2])) for _ in range(8)]
            u, v = KLEIN_ALPHABET.word(raw_u), KLEIN_ALPHABET.word(raw_v)
            assert hom.evaluate(u * v) == hom.evaluate(u) * hom.evaluate(v)


class TestRewriteOracle:
    def test_klein_rule_example(self):
        from surfgroups.klein import klein_rewrite_rules

        word = KLEIN_ALPHABET.parse("be*al*be")
        assert oracle_normal_form(klein_rewrite_rules(), word) == KLEIN_ALPHABET.parse(
            "al^-1*be^2"
        )

    def test_empty_rule_set_is_noop(self):
        word = w("x*y^-1*x^2")
        assert oracle_normal_form([], word) == word

    def test_p2t_centralizing_rules(self):
        from surfgroups.torusbraid import P2T_ALPHABET, p2t_central_rules

        word = P2T_ALPHABET.parse("a*x*a^-1")
        assert oracle_normal_form(p2t_central_rules(), word) == P2T_ALPHABET.parse("x")

    def test_budget_guard(self):
        # x -> x^2 grows forever; the guard must fire.
        rule = RewriteRule(w("x"), w("x^2"))
        from surfgroups.words import RewriteBudgetExceeded

        with pytest.raises(RewriteBudgetExceeded):
            oracle_normal_form([rule], w("x"), max_steps=50)


class TestPresentation:
    def test_relator_alphabet_checked(self):
        other = Alphabet.of("a", "b")
        with pytest.raises(AlphabetMismatch):
            Presentation(AB, (other.parse("a"),))


def rescan_oracle(rules, w, max_steps):
    """The full-rescan loop that oracle_normal_form replaced: after every
    rewrite, search the whole word again for the leftmost match.  Returns the
    normal form and the number of rewrite steps taken."""
    rule_list = [(tuple(r.lhs.letters()), tuple(r.rhs.letters())) for r in rules]
    letters = list(w.letters())
    steps = 0
    while True:
        best = None  # (position, rule index)
        for ri, (lhs, _) in enumerate(rule_list):
            k = len(lhs)
            if k == 0:
                continue
            for i in range(len(letters) - k + 1):
                if tuple(letters[i : i + k]) == lhs:
                    if best is None or i < best[0]:
                        best = (i, ri)
                    break
        if best is None:
            break
        i, ri = best
        lhs, rhs = rule_list[ri]
        letters[i : i + len(lhs)] = list(rhs)
        stack = []
        for let in letters:
            if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
                stack.pop()
            else:
                stack.append(let)
        letters = stack
        steps += 1
        if steps > max_steps:
            raise RewriteBudgetExceeded(f"exceeded {max_steps} rewrite steps")
    return w.alphabet.word(letters), steps


short_syllables = st.tuples(st.sampled_from(["x", "y"]), st.sampled_from([-2, -1, 1, 2]))


# Rule sets whose normal forms put one kind of letter first (Klein: al, p2t:
# x and y) and another last (Klein: be, p2t: b).  A long first and last
# syllable around a short core take few rewrites, but the core's letters
# cancel deep into them.
REWRITE_SYSTEMS = {
    "klein": (klein_rewrite_rules(), KLEIN_ALPHABET, "al", "be", ["al", "be"]),
    "p2t": (p2t_central_rules(), P2T_ALPHABET, "x", "b", ["x", "y", "a", "b"]),
}


@st.composite
def rewrite_cases(draw):
    system = draw(st.sampled_from(sorted(REWRITE_SYSTEMS)))
    rules, alphabet, first, last, names = REWRITE_SYSTEMS[system]
    core = draw(
        st.lists(st.tuples(st.sampled_from(names), st.integers(-3, 3)), max_size=6)
    )
    raw = [(first, draw(big_exponents))] + core + [(last, draw(big_exponents))]
    return rules, alphabet.word(raw)


class TestResumableOracle:
    @given(rewrite_cases())
    @example((klein_rewrite_rules(), KLEIN_ALPHABET.parse("al^1000*be*al*be^-1*al^-1000")))
    @example((klein_rewrite_rules(), KLEIN_ALPHABET.parse("al^-1000*be^2*al^-3*be^-1000")))
    @example((p2t_central_rules(), P2T_ALPHABET.parse("x^1000*a*x^-1*b^-2*y*b^1000")))
    @example((p2t_central_rules(), P2T_ALPHABET.parse("x^-1000*b*a^-1*x*y^2*a*b^-1000")))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_rescan(self, case):
        rules, word = case
        expected, steps = rescan_oracle(rules, word, max_steps=10**6)
        assert oracle_normal_form(rules, word, max_steps=steps) == expected
        if steps:
            with pytest.raises(RewriteBudgetExceeded):
                oracle_normal_form(rules, word, max_steps=steps - 1)

    @given(
        st.lists(
            st.tuples(st.lists(short_syllables, max_size=3), st.lists(short_syllables, max_size=3)),
            min_size=1,
            max_size=3,
        ),
        st.lists(short_syllables, max_size=6),
    )
    @example(  # a rewrite that cancels into the prefix it keeps
        [([("x", 1)], [("x", -2), ("y", 1)]), ([("y", 1)], [("x", 4)]), ([("x", 1)], [])],
        [("y", 2), ("x", -1)],
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_rescan_on_arbitrary_rules(self, raw_rules, raw_word):
        # Arbitrary rules need not terminate: compare up to a small budget.
        rules = [RewriteRule(AB.word(lhs), AB.word(rhs)) for lhs, rhs in raw_rules]
        word = AB.word(raw_word)
        try:
            expected = rescan_oracle(rules, word, max_steps=50)[0]
        except RewriteBudgetExceeded:
            with pytest.raises(RewriteBudgetExceeded):
                oracle_normal_form(rules, word, max_steps=50)
        else:
            assert oracle_normal_form(rules, word, max_steps=50) == expected

    @pytest.mark.parametrize(
        "rules",
        [
            [RewriteRule(w("x"), w("x^2"))],
            [RewriteRule(w("x*y"), w("y*x")), RewriteRule(w("y*x"), w("x*y"))],
        ],
    )
    def test_budget_fires_at_the_same_step(self, rules):
        for max_steps in (0, 1, 7, 50):
            with pytest.raises(RewriteBudgetExceeded) as slow:
                rescan_oracle(rules, w("y*x*y"), max_steps)
            with pytest.raises(RewriteBudgetExceeded) as fast:
                oracle_normal_form(rules, w("y*x*y"), max_steps)
            assert str(fast.value) == str(slow.value)
