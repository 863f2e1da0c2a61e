import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from surfgroups.klein import (
    KLEIN_ALPHABET,
    KLEIN_IDENTITY,
    KLEIN_PRESENTATION,
    KleinElement,
    from_word,
    klein_rewrite_rules,
)
from surfgroups.torusbraid import IDENTITY as B2T_IDENTITY
from surfgroups.torusbraid import P2T_ALPHABET, p2t_central_rules
from surfgroups.words import (
    DEFAULT_NF_BUDGET,
    Alphabet,
    DomainError,
    FreeWord,
    GroupHom,
    NormalFormTooLarge,
    Presentation,
    RewriteBudgetExceeded,
    RewriteRule,
    WordParseError,
    fold,
    oracle_normal_form,
    parse_word,
    power,
    reduce_syllables,
)

from conftest import (
    deadline,
    failures,
    letters,
    random_b2t,
    random_klein,
    random_long_exponent_word,
    random_word,
)

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
        with pytest.raises(DomainError, match="generator 'z' not in alphabet"):
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

    def test_inverse_matches_negating_each_syllable(self, rng):
        """The oracle is the generator expression that `inverse` replaced."""
        for _ in range(2000):
            u = random_long_exponent_word(rng, AB)
            expected = tuple((n, -e) for n, e in reversed(u.syllables))
            assert u.inverse().syllables == expected

    def test_inverse_shares_one_tuple_per_distinct_syllable(self, rng):
        u = AB.word((("x", "y")[k % 2], rng.choice([-3, -2, -1, 1, 2, 3])) for k in range(10_000))
        inv = u.inverse()
        assert len(inv.syllables) == 10_000
        assert len({id(syl) for syl in inv.syllables}) <= 12

    def test_identity_law(self):
        word = w("x*y^2*x^-1")
        assert AB.identity() * word == word

    def test_alphabet_mismatch(self):
        other = Alphabet.of("a", "b")
        with pytest.raises(DomainError, match="cannot multiply words over"):
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


class TestClosedFormPower:
    """`FreeWord ** k` against `words.power`, the generic square-and-multiply."""

    @pytest.mark.parametrize(
        "text, cube",
        [
            ("1", "1"),                                        # the empty word
            ("x^3", "x^9"),                                    # one syllable
            ("x*y", "x*y*x*y*x*y"),                            # end names differ
            ("x^2*y*x^-3", "x^2*y*x^-1*y*x^-1*y*x^-3"),        # merging ends
            ("x*y^2*x^-1", "x*y^6*x^-1"),                      # stripped conjugator
        ],
    )
    def test_each_shape(self, text, cube):
        word = w(text)
        assert word ** 3 == w(cube) == power(word, 3, AB.identity())
        for k in range(-9, 10):
            assert word ** k == power(word, k, AB.identity())

    def test_matches_square_and_multiply(self, rng):
        """Random words, half of them conjugated so that the ends strip."""
        for _ in range(2000):
            word = random_word(rng, AB, rng.choice([1, 2, 3, 8]))
            if rng.random() < 0.5:
                p = random_word(rng, AB, 4)
                word = p * word * p.inverse()
            k = rng.randint(-9, 9)
            assert word ** k == power(word, k, AB.identity())

    # (word, k, syllables of word^k): 2k, 2k + 1 and a constant 5.
    @pytest.mark.parametrize(
        "text, k, size",
        [
            ("x*y", DEFAULT_NF_BUDGET // 2, DEFAULT_NF_BUDGET),
            ("x*y*x", DEFAULT_NF_BUDGET // 2 - 1, DEFAULT_NF_BUDGET - 1),
            ("y*x*y^2*x^-1*y^-1", 10**15, 5),
        ],
    )
    def test_builds_up_to_the_budget(self, text, k, size):
        assert len((w(text) ** k).syllables) == size

    @pytest.mark.parametrize(
        "text, k, size",
        [
            ("x*y", DEFAULT_NF_BUDGET // 2 + 1, DEFAULT_NF_BUDGET + 2),
            ("x*y*x", DEFAULT_NF_BUDGET // 2, DEFAULT_NF_BUDGET + 1),
            ("x*y", 10**12, 2 * 10**12),
        ],
    )
    def test_refuses_over_the_budget_before_building(self, text, k, size):
        with deadline(1.0), pytest.raises(NormalFormTooLarge, match=f"have {size} syllables"):
            w(text) ** k


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

    @pytest.mark.parametrize("text, token, column", [("x*#", "#", 3), ("x*^2", "^", 3), ("é", "é", 1)])
    def test_invalid_token(self, text, token, column):
        with pytest.raises(WordParseError, match="^invalid token") as exc:
            AB.parse(text)
        assert (exc.value.token, exc.value.column) == (token, column)

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
        assert failures(report) == ["al*be*al*be^-1"]

    def test_stray_image_rejected(self):
        alpha = from_word(KLEIN_ALPHABET.parse("al"))
        with pytest.raises(DomainError, match="images of names outside the alphabet: .*zz"):
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

    def test_refuses_a_word_over_the_budget_before_expanding_it(self):
        with deadline(1.0):
            with pytest.raises(NormalFormTooLarge, match=f"budget of {DEFAULT_NF_BUDGET}"):
                oracle_normal_form(klein_rewrite_rules(), KLEIN_ALPHABET.parse("be*al^999999999"))
            at_budget = KLEIN_ALPHABET.gen("al", DEFAULT_NF_BUDGET)
            assert oracle_normal_form(klein_rewrite_rules(), at_budget) == at_budget

    def test_refuses_a_rewrite_that_grows_past_the_budget(self):
        # Each step copies the whole string, and x -> x^1000 grows it by 999
        # letters a step: without the letter cap it would run until the step
        # budget, at 10^9 letters.
        with deadline(2.0):
            with pytest.raises(NormalFormTooLarge, match="grew the word to 1000999 letters"):
                oracle_normal_form([RewriteRule(w("x"), w("x^1000"))], w("x"))
            to_budget = RewriteRule(w("x"), w(f"y^{DEFAULT_NF_BUDGET}"))
            assert oracle_normal_form([to_budget], w("x")) == to_budget.rhs
            with pytest.raises(NormalFormTooLarge, match=f"{DEFAULT_NF_BUDGET + 1} letters"):
                oracle_normal_form([to_budget], w("x^2"))


class TestOracleEncoding:
    """Names that run into each other when spelled out, and rules that name
    letters outside the word's alphabet, keep their meaning."""

    def test_names_that_are_prefixes_of_each_other(self):
        abc = Alphabet.of("a", "aa", "b")
        rule = RewriteRule(abc.parse("a*a"), abc.parse("aa"))
        assert oracle_normal_form([rule], abc.parse("a^3*aa")) == abc.parse("aa*a*aa")

    def test_a_rule_letter_outside_the_alphabet_never_matches(self):
        xz = Alphabet.of("x", "z")
        assert oracle_normal_form([RewriteRule(xz.parse("z*x"), xz.parse("x"))], w("x*y")) == w("x*y")

    def test_a_foreign_rhs_letter_is_refused(self):
        xz = Alphabet.of("x", "z")
        with pytest.raises(DomainError, match=r"^generator 'z' not in alphabet \('x', 'y'\)$"):
            oracle_normal_form([RewriteRule(xz.parse("x"), xz.parse("z"))], w("x*y"))


@pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=4)))
@pytest.mark.parametrize("mag", [5, 40])
def test_klein_oracle_takes_one_step_per_be_al_pair(mag, signs):
    """al^r*be^s*al^p*be^q reaches al^(r+-p)*be^(s+q) by moving each of the
    |s| be-letters past each of the |p| al-letters once: |s|*|p| steps."""
    r, s, p, q = (sign * mag for sign in signs)
    word = KLEIN_ALPHABET.word([("al", r), ("be", s), ("al", p), ("be", q)])
    steps = abs(s) * abs(p)
    expected = (KleinElement(r, s) * KleinElement(p, q)).to_word()
    assert oracle_normal_form(klein_rewrite_rules(), word, max_steps=steps) == expected
    with pytest.raises(RewriteBudgetExceeded, match=f"^exceeded {steps - 1} rewrite steps$"):
        oracle_normal_form(klein_rewrite_rules(), word, max_steps=steps - 1)


@pytest.mark.parametrize(
    "rules, word, expected",
    [  # the head cancels into the rhs; the rhs into the tail; the head into the tail
        ([("x^-1", "x"), ("y", "x^-1")], "x^-1*y", "1"),
        ([("y^-1", "y")], "y^-2", "1"),
        ([("x^-1", "1"), ("y^-1", "1")], "x^2*y^-1*x^-1", "x"),
    ],
)
def test_a_rewrite_cancels_at_both_seams(rules, word, expected):
    """A letter left uncancelled at a seam could match a rule and change the
    later rewrites, although the final reduction would hide it."""
    rules = [RewriteRule(w(lhs), w(rhs)) for lhs, rhs in rules]
    assert rescan_oracle(rules, w(word), max_steps=20)[0] == w(expected)
    assert oracle_normal_form(rules, w(word), max_steps=20) == w(expected)


class TestPresentation:
    def test_relator_alphabet_checked(self):
        other = Alphabet.of("a", "b")
        with pytest.raises(DomainError, match="relator a not over"):
            Presentation(AB, (other.parse("a"),))


def rescan_oracle(rules, w, max_steps):
    """The full-rescan loop that oracle_normal_form replaced: after every
    rewrite, search the whole word again for the leftmost match.  Returns the
    normal form and the number of rewrite steps taken."""
    rule_list = [(tuple(letters(r.lhs)), tuple(letters(r.rhs))) for r in rules]
    word = list(letters(w))
    steps = 0
    while True:
        best = None  # (position, rule index)
        for ri, (lhs, _) in enumerate(rule_list):
            k = len(lhs)
            if k == 0:
                continue
            for i in range(len(word) - k + 1):
                if tuple(word[i : i + k]) == lhs:
                    if best is None or i < best[0]:
                        best = (i, ri)
                    break
        if best is None:
            break
        i, ri = best
        lhs, rhs = rule_list[ri]
        word[i : i + len(lhs)] = list(rhs)
        stack = []
        for let in word:
            if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
                stack.pop()
            else:
                stack.append(let)
        word = stack
        steps += 1
        if steps > max_steps:
            raise RewriteBudgetExceeded(f"exceeded {max_steps} rewrite steps")
    return w.alphabet.word(word), steps


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
