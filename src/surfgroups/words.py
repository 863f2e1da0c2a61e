"""Free-group word arithmetic, presentations, and relator-checked homomorphisms.

Words are stored in syllable (run-length) form: a tuple of (generator name,
nonzero exponent) pairs with adjacent syllables over distinct generators, so
every word is freely reduced by construction.  All values are immutable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

DEFAULT_REWRITE_BUDGET = 10**6

# Largest free word, in syllables, that a product may build.
DEFAULT_NF_BUDGET = 10**6


class WordError(ValueError):
    """Base class for word/presentation errors."""


class UnknownGenerator(WordError):
    pass


class AlphabetMismatch(WordError):
    pass


class WordParseError(WordError):
    def __init__(self, message: str, token: str, column: int):
        super().__init__(f"{message}: {token!r} at column {column}")
        self.token = token
        self.column = column


class NormalFormTooLarge(WordError):
    """A product would exceed the normal-form size budget."""


class RewriteBudgetExceeded(RuntimeError):
    """The rewrite oracle exceeded its step budget (rule set likely non-terminating)."""


@dataclass(frozen=True)
class Generator:
    name: str

    def __post_init__(self):
        if not GENERATOR_NAME.fullmatch(self.name):
            raise UnknownGenerator(f"invalid generator name: {self.name!r}")


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of generators; declaration order is canonical."""

    generators: tuple[Generator, ...]

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise WordError(f"duplicate generator names: {names}")

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(Generator(n) for n in names))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    @cached_property
    def _name_set(self) -> frozenset[str]:
        return frozenset(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._name_set

    def identity(self) -> "FreeWord":
        return FreeWord(self, ())

    def gen(self, name: str, exponent: int = 1) -> "FreeWord":
        return self.word([(name, exponent)])

    def word(self, syllables: Iterable[tuple[str, int]]) -> "FreeWord":
        return FreeWord(self, reduce_syllables(syllables, self))

    def parse(self, text: str) -> "FreeWord":
        return parse_word(text, self)


def reduce_syllables(
    raw: Iterable[tuple[str, int]], alphabet: Alphabet | None = None
) -> tuple[tuple[str, int], ...]:
    """Freely reduce a raw syllable list.  Idempotent."""
    stack: list[list] = []
    for name, exp in raw:
        if alphabet is not None and name not in alphabet:
            raise UnknownGenerator(f"generator {name!r} not in alphabet {alphabet.names}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == name:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([name, exp])
    return tuple((n, e) for n, e in stack)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word over an alphabet.  The empty word is the identity."""

    alphabet: Alphabet
    syllables: tuple[tuple[str, int], ...]

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"cannot multiply words over {self.alphabet.names} and {other.alphabet.names}"
            )
        # Both factors are reduced, so only the seam where they meet can cancel.
        left, right = self.syllables, other.syllables
        i, j = len(left), 0
        middle = ()
        while i and j < len(right):
            name, exp = left[i - 1]
            if right[j][0] != name:
                break
            exp += right[j][1]
            i -= 1
            j += 1
            if exp:
                middle = ((name, exp),)
                break
        size = i + len(middle) + len(right) - j
        if size > DEFAULT_NF_BUDGET:
            raise NormalFormTooLarge(
                f"normal form would have {size} syllables, over the budget of "
                f"{DEFAULT_NF_BUDGET}"
            )
        return FreeWord(self.alphabet, left[:i] + middle + right[j:])

    def inverse(self) -> "FreeWord":
        return FreeWord(
            self.alphabet, tuple((n, -e) for n, e in reversed(self.syllables))
        )

    def __pow__(self, n: int) -> "FreeWord":
        return power(self, n, self.alphabet.identity())

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield (name, +-1) letter by letter."""
        for name, exp in self.syllables:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (name, step)

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self) -> str:
        return format_word(self.syllables)


def power(x, n: int, identity):
    """x^n by square-and-multiply in any engine with `__mul__` and
    `inverse()`; a negative n powers x.inverse()."""
    if n < 0:
        x, n = x.inverse(), -n
    result = identity
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def fold(images, identity, syllables: Iterable[tuple[str, int]]):
    """The product of images[name]^exp over the syllables, in order."""
    result = identity
    for name, exp in syllables:
        result = result * power(images[name], exp, identity)
    return result


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def format_word(syllables: Iterable[tuple[str, int]]) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in syllables]
    return "*".join(parts) if parts else "1"


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*(\^-?\d+)?|\*|1|\s+|.")


def parse_word(text: str, alphabet: Alphabet) -> FreeWord:
    """Parse the textual word grammar: word := "1" | term ("*" term)*,
    term := name ("^" signed-int)?.
    """
    syllables: list[tuple[str, int]] = []
    expect_term = True
    saw_any = False
    pos = 0
    for match in _TOKEN.finditer(text):
        tok = match.group(0)
        pos = match.start() + 1  # 1-based column
        if tok.isspace():
            continue
        if tok == "*":
            if expect_term:
                raise WordParseError("unexpected separator", tok, pos)
            expect_term = True
            continue
        if not expect_term:
            raise WordParseError("expected '*' between terms", tok, pos)
        if tok == "1":
            expect_term = False
            saw_any = True
            continue
        m = re.fullmatch(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?", tok)
        if not m:
            raise WordParseError("invalid token", tok, pos)
        name, exp = m.group(1), int(m.group(2)) if m.group(2) else 1
        if name not in alphabet:
            raise WordParseError(
                f"unknown generator (alphabet is {', '.join(alphabet.names)})", name, pos
            )
        syllables.append((name, exp))
        expect_term = False
        saw_any = True
    if expect_term and saw_any:
        raise WordParseError("dangling separator", "*", pos)
    if not saw_any and text.strip():
        raise WordParseError("empty word", text, 1)
    if not saw_any:
        raise WordParseError("empty input", text or "", 1)
    return alphabet.word(syllables)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: an alphabet and a list of relator words."""

    alphabet: Alphabet
    relators: tuple[FreeWord, ...]

    def __post_init__(self):
        for rel in self.relators:
            if rel.alphabet != self.alphabet:
                raise AlphabetMismatch(f"relator {rel} not over {self.alphabet.names}")

    @classmethod
    def parse(cls, alphabet: Alphabet, relator_texts: Iterable[str]) -> "Presentation":
        return cls(alphabet, tuple(alphabet.parse(t) for t in relator_texts))


@dataclass(frozen=True)
class HomReport:
    """Per-relator pass/fail record for a homomorphism check."""

    results: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.results)

    def failures(self) -> list[str]:
        return [rel for rel, ok in self.results if not ok]


@dataclass(frozen=True)
class GroupHom:
    """A map into a normal-form engine, given by generator images.

    The target engine must expose `__mul__`, `inverse()` and `is_identity()`;
    `identity` is the engine's identity element (needed for the empty word).
    """

    source: Presentation
    images: dict  # generator name -> target element
    identity: object = None

    def __post_init__(self):
        missing = [n for n in self.source.alphabet.names if n not in self.images]
        if missing:
            raise WordError(f"generators without images: {missing}")
        stray = [n for n in self.images if n not in self.source.alphabet]
        if stray:
            raise WordError(f"images of names outside the alphabet: {stray}")
        if self.identity is None:
            raise WordError("target identity element is required")

    def evaluate(self, w: FreeWord):
        """Multiplicative extension of the generator images."""
        if w.alphabet != self.source.alphabet:
            raise AlphabetMismatch(f"word {w} not over the source alphabet")
        return fold(self.images, self.identity, w.syllables)

    def verify(self) -> HomReport:
        """The map extends to a homomorphism iff every relator maps to 1."""
        return HomReport(
            tuple((str(r), self.evaluate(r).is_identity()) for r in self.source.relators)
        )


@dataclass(frozen=True)
class RewriteRule:
    lhs: FreeWord
    rhs: FreeWord


def oracle_normal_form(
    rules: Iterable[RewriteRule],
    w: FreeWord,
    max_steps: int = DEFAULT_REWRITE_BUDGET,
) -> FreeWord:
    """Slow generic rewriting oracle: apply the leftmost applicable rule (the
    lowest rule index among those at that position) until none applies,
    free-reducing between steps.  The caller is responsible for supplying a
    terminating, confluent rule list; a step budget guards against accidental
    non-termination.
    """
    rule_list = [  # empty left-hand sides never apply
        (list(r.lhs.letters()), list(r.rhs.letters())) for r in rules if r.lhs.syllables
    ]
    longest = max((len(lhs) for lhs, _ in rule_list), default=0)
    letters = list(w.letters())
    steps = 0
    start = 0
    while True:
        found = next(
            (
                (i, lhs, rhs)
                for i in range(start, len(letters))
                for lhs, rhs in rule_list
                if letters[i : i + len(lhs)] == lhs
            ),
            None,
        )
        if found is None:
            break
        i, lhs, rhs = found
        # No window inside the surviving prefix matched before, so none does now.
        letters, kept = _free_reduce_letters(letters[:i], rhs, letters[i + len(lhs) :])
        start = max(0, kept - (longest - 1))
        steps += 1
        if steps > max_steps:
            raise RewriteBudgetExceeded(f"exceeded {max_steps} rewrite steps")
    return w.alphabet.word(letters)


def _free_reduce_letters(
    head: list[tuple[str, int]], middle: list[tuple[str, int]], tail: list[tuple[str, int]]
) -> tuple[list[tuple[str, int]], int]:
    """Freely reduce head + middle + tail, where head and tail are reduced,
    extending head in place.  Also return how long a prefix of head survives
    unchanged."""
    stack = head
    kept = len(head)
    for let in middle:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
        kept = min(kept, len(stack))
    # tail is reduced, so it cancels only where it meets the stack.
    j = 0
    while stack and j < len(tail) and stack[-1][0] == tail[j][0] and stack[-1][1] == -tail[j][1]:
        stack.pop()
        j += 1
    kept = min(kept, len(stack))
    stack.extend(tail[j:])
    return stack, kept
