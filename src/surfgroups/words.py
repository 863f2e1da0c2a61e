"""Free-group word arithmetic, presentations, and relator-checked homomorphisms.

Words are stored in syllable (run-length) form: a tuple of (generator name,
nonzero exponent) pairs with adjacent syllables over distinct generators, so
every word is freely reduced by construction.  All values are immutable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable

GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

DEFAULT_REWRITE_BUDGET = 10**6

# Largest free word, in syllables, that a product may build, and, in letters,
# that the rewrite oracle takes as input.
DEFAULT_NF_BUDGET = 10**6

# The rewrite oracle's character for letter 0 (chr(48) is "0").
_CODE_BASE = 48


class DomainError(ValueError):
    """An input outside what the library answers: a refusal, not a bug.

    Every refusal of outside input raises this type or a subclass of it
    (`WordParseError`, `NormalFormTooLarge`); the CLI exits 1 on it, or 2 on
    a `WordParseError`.  A plain `ValueError` marks a broken internal
    invariant, which only a bug can trip, and the CLI lets it propagate.
    """


class WordParseError(DomainError):
    def __init__(self, message: str, token: str, column: int):
        super().__init__(f"{message}: {token!r} at column {column}")
        self.token = token
        self.column = column


class NormalFormTooLarge(DomainError):
    """A product would exceed the normal-form size budget."""


class RewriteBudgetExceeded(RuntimeError):
    """The rewrite oracle exceeded its step budget (rule set likely non-terminating)."""


@dataclass(frozen=True)
class Generator:
    name: str

    def __post_init__(self):
        if not GENERATOR_NAME.fullmatch(self.name):
            raise DomainError(f"invalid generator name: {self.name!r}")


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of generators; declaration order is canonical."""

    generators: tuple[Generator, ...]

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate generator names: {names}")

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
            raise DomainError(f"generator {name!r} not in alphabet {alphabet.names}")
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
            raise DomainError(
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
        _check_size(i + len(middle) + len(right) - j)
        return FreeWord(self.alphabet, left[:i] + middle + right[j:])

    def inverse(self) -> "FreeWord":
        return FreeWord(self.alphabet, _negate(reversed(self.syllables)))

    def __pow__(self, k: int) -> "FreeWord":
        """w^k in closed form, sized before it is built.

        Strip the inverse end syllables, so that w = p*c*p^-1 with c
        cyclically reduced; then w^k = p*c^k*p^-1.  If c is one syllable
        (g, a), c^k is (g, a*k).  If c's end names differ, the copies of c meet
        without cancelling, so c^k is c repeated k times.  Otherwise
        c = (g, a)*M*(g, b) with a + b != 0 (c is cyclically reduced), so the
        copies merge at each seam: c^k = (g, a)*[M*(g, a+b)]^(k-1)*M*(g, b).
        A negative k powers the inverse.
        """
        if k < 0:
            return self.inverse() ** -k
        syl = self.syllables
        if k == 1 or not syl:
            return self
        if k == 0:
            return self.alphabet.identity()
        i, n = 0, len(syl)
        while i < n - 1 - i and syl[n - 1 - i] == (syl[i][0], -syl[i][1]):
            i += 1
        core = syl[i : n - i]
        (first, a), (last, b) = core[0], core[-1]
        if len(core) == 1:
            _check_size(2 * i + 1)
            power_of_core = ((first, a * k),)
        elif first != last:
            _check_size(2 * i + len(core) * k)
            power_of_core = core * k
        else:
            _check_size(2 * i + (len(core) - 1) * k + 1)
            middle = core[1:-1]
            power_of_core = core[:1] + (middle + ((first, a + b),)) * (k - 1) + middle + core[-1:]
        return FreeWord(self.alphabet, syl[:i] + power_of_core + syl[n - i :])

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self) -> str:
        return format_word(self.syllables)


class _Negations(dict):
    """Syllable -> the same syllable with its exponent negated, filled on
    first lookup."""

    def __missing__(self, syllable: tuple[str, int]) -> tuple[str, int]:
        name, exp = syllable
        negated = self[syllable] = (name, -exp)
        return negated


def _negate(syllables: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The syllables, in the given order, each with its exponent negated.

    A table local to the call negates each distinct syllable once, and its
    repeats share that one tuple: a long word over a few generators and small
    exponents then costs a handful of new tuples, not one per syllable, and
    leaves the garbage collector nearly nothing to track.  Tuples are
    immutable, so sharing them is invisible to every caller.
    """
    return tuple(map(_Negations().__getitem__, syllables))


def _check_size(size: int) -> None:
    """Refuse a free word of `size` syllables over `DEFAULT_NF_BUDGET`."""
    if size > DEFAULT_NF_BUDGET:
        raise NormalFormTooLarge(
            f"normal form would have {size} syllables, over the budget of "
            f"{DEFAULT_NF_BUDGET}"
        )


def power(x, n: int, identity):
    """x^n by square-and-multiply in any engine with `__mul__` and
    `inverse()`; a negative n powers x.inverse().  The generic fallback for
    engines without a closed-form `__pow__`, and the tests' oracle for those
    that have one."""
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
    """The product of images[name]^exp over the syllables, in order.  Each
    image is raised by its own type's `__pow__` where the type defines one,
    and by `power` otherwise."""
    result = identity
    for name, exp in syllables:
        image = images[name]
        if hasattr(type(image), "__pow__"):
            result = result * image ** exp
        else:
            result = result * power(image, exp, identity)
    return result


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def format_word(syllables: Iterable[tuple[str, int]]) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in syllables]
    return "*".join(parts) if parts else "1"


# A term is a generator name (group 1) with optional exponent digits (group 2).
_TOKEN = re.compile(rf"({GENERATOR_NAME.pattern})(?:\^(-?\d+))?|\*|1|\s+|.")


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
        name, digits = match.groups()
        if name is None:
            raise WordParseError("invalid token", tok, pos)
        try:
            exp = int(digits) if digits else 1
        except ValueError as exc:  # more digits than the interpreter converts
            raise WordParseError("exponent has too many digits", f"{tok[:20]}...", pos) from exc
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
                raise DomainError(f"relator {rel} not over {self.alphabet.names}")

    @classmethod
    def parse(cls, alphabet: Alphabet, relator_texts: Iterable[str]) -> "Presentation":
        return cls(alphabet, tuple(alphabet.parse(t) for t in relator_texts))


@dataclass(frozen=True)
class HomReport:
    """Per-relator pass/fail record for a homomorphism check."""

    results: tuple[tuple[FreeWord, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.results)


@dataclass(frozen=True)
class GroupHom:
    """A map into a normal-form engine, given by generator images.

    The target engine must expose `__mul__`, `inverse()` and `is_identity()`;
    `identity` is the engine's identity element (needed for the empty word).
    `__pow__` is optional: `fold` raises an image by it where its type
    defines one, and by the generic `power` otherwise.
    """

    source: Presentation
    images: dict  # generator name -> target element
    identity: object

    def __post_init__(self):
        missing = [n for n in self.source.alphabet.names if n not in self.images]
        if missing:
            raise DomainError(f"generators without images: {missing}")
        stray = [n for n in self.images if n not in self.source.alphabet]
        if stray:
            raise DomainError(f"images of names outside the alphabet: {stray}")

    def evaluate(self, w: FreeWord):
        """Multiplicative extension of the generator images."""
        if w.alphabet != self.source.alphabet:
            raise DomainError(f"word {w} not over the source alphabet")
        return fold(self.images, self.identity, w.syllables)

    def verify(self) -> HomReport:
        """The map extends to a homomorphism iff every relator maps to 1."""
        return HomReport(tuple((r, self.evaluate(r).is_identity()) for r in self.source.relators))


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
    non-termination.  A word over `DEFAULT_NF_BUDGET` letters is refused
    before it is expanded, and so is a rewrite that grows the string past
    that many letters, since each step copies the whole string.

    The word is rewritten as one `str`, one character per letter: generator j
    with sign e becomes chr(_CODE_BASE + 2j + (e < 0)), so a letter and its inverse
    differ only in bit 0.  The names of `w.alphabet` are numbered first, then
    any other names the rules use, so a rule letter outside the alphabet
    never matches a letter of `w`; a foreign letter that a rhs brings in
    reaches the final `w.alphabet.word` and is refused there.

    The rules' left-hand sides form one regex alternation, in rule order.  A
    search tries the alternatives in order at each position before it moves
    to the next, so the first match is at the leftmost position where any
    lhs matches, and is the lowest-index rule there: the same rewrite, step by
    step, as a scan over positions and then rules.  A repeated lhs keeps the
    first rule's rhs, as the scan does.

    A step costs one search, started just before the rewritten spot, and one
    rebuild of the string by slicing.  The head before the match, the rhs and
    the tail after it are each freely reduced, so free reduction cancels only
    outward from the two seams where they meet.
    """
    size = w.length()
    if size > DEFAULT_NF_BUDGET:
        raise NormalFormTooLarge(
            f"word has {size} letters, over the budget of {DEFAULT_NF_BUDGET}"
        )
    index = {name: j for j, name in enumerate(w.alphabet.names)}

    def encode(word: FreeWord) -> str:
        return "".join(
            chr(_CODE_BASE + 2 * index.setdefault(name, len(index)) + (e < 0)) * abs(e)
            for name, e in word.syllables
        )

    rhs_of: dict[str, str] = {}
    for r in rules:
        lhs = encode(r.lhs)
        rhs = encode(r.rhs)
        if lhs:  # empty left-hand sides never apply
            rhs_of.setdefault(lhs, rhs)
    s = encode(w)
    if rhs_of:
        search = re.compile("|".join(map(re.escape, rhs_of))).search
        back = max(map(len, rhs_of)) - 1
        steps = 0
        match = search(s)
        while match is not None:
            i, j = match.span()
            rhs = rhs_of[match.group()]
            # Cancel the head's end against the rhs, then what is left of the
            # rhs against the tail, and, once the rhs is used up, the head
            # against the tail.
            k = 0
            while k < len(rhs) and i and ord(s[i - 1]) ^ ord(rhs[k]) == 1:
                i -= 1
                k += 1
            m = len(rhs)
            while m > k and j < len(s) and ord(rhs[m - 1]) ^ ord(s[j]) == 1:
                m -= 1
                j += 1
            if m == k:
                while i and j < len(s) and ord(s[i - 1]) ^ ord(s[j]) == 1:
                    i -= 1
                    j += 1
            s = s[:i] + rhs[k:m] + s[j:]
            if len(s) > DEFAULT_NF_BUDGET:
                raise NormalFormTooLarge(
                    f"rewriting grew the word to {len(s)} letters, over the budget of "
                    f"{DEFAULT_NF_BUDGET}"
                )
            steps += 1
            if steps > max_steps:
                raise RewriteBudgetExceeded(f"exceeded {max_steps} rewrite steps")
            # No window inside the surviving head matched before, so none does now.
            match = search(s, max(0, i - back))
    names = list(index)
    runs = ((ord(c) - _CODE_BASE, sum(1 for _ in run)) for c, run in groupby(s))
    return w.alphabet.word((names[code >> 1], -n if code & 1 else n) for code, n in runs)
