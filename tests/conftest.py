import contextlib
import random
import signal

import pytest

from surfgroups.klein import KleinElement
from surfgroups.torusbraid import XY, B2TElement
from surfgroups.words import Alphabet, FreeWord


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int = 16) -> FreeWord:
    raw = [
        (rng.choice(alphabet.names), rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, max_len))
    ]
    return alphabet.word(raw)


def random_klein(rng: random.Random, bound: int = 20) -> KleinElement:
    return KleinElement(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_b2t(rng: random.Random, word_len: int = 16, central_bound: int = 8) -> B2TElement:
    return B2TElement(
        random_word(rng, XY, word_len),
        rng.randint(-central_bound, central_bound),
        rng.randint(-central_bound, central_bound),
        rng.randint(0, 1),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the running test if the enclosed block takes more than `seconds`
    of wall time (SIGALRM), instead of letting it hang the suite."""

    def fire(signum, frame):
        pytest.fail(f"deadline of {seconds} s exceeded", pytrace=False)

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
