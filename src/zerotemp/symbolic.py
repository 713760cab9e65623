"""Subshifts of finite type and their admissible words.

A subshift is described by a 0/1 transition matrix over a finite alphabet
``{0, ..., n-1}``.  The other modules see a subshift only through its
admissible words, enumerated in the lexicographic order that indexes their
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Sft",
    "full_shift",
    "enumerate_words",
]


@dataclass(frozen=True)
class Sft:
    """A one-sided subshift of finite type with alphabet {0, ..., alphabet_size-1}.

    ``transitions[i][j]`` is True iff symbol ``j`` may follow symbol ``i``.
    """

    alphabet_size: int
    transitions: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = self.alphabet_size
        if n < 1:
            raise ValueError("alphabet_size must be positive")
        t = self.transitions
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError("transition matrix shape does not match alphabet")
        for i in range(n):
            if not any(t[i][j] for j in range(n)):
                raise ValueError(f"symbol {i} has no successor (dead row)")
            if not any(t[j][i] for j in range(n)):
                raise ValueError(f"symbol {i} has no predecessor (dead column)")

    def allows(self, i: int, j: int) -> bool:
        """True iff symbol j may follow symbol i."""
        return self.transitions[i][j]

    @cached_property
    def _words(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """Admissible words by length, filled by enumerate_words."""
        return {}


def full_shift(d: int) -> Sft:
    """The full shift on d+1 symbols, all transitions allowed."""
    if d < 1:
        raise ValueError("d must be >= 1")
    n = d + 1
    return Sft(n, tuple(tuple(True for _ in range(n)) for _ in range(n)))


def _enumerate(sft: Sft, length: int) -> tuple[tuple[int, ...], ...]:
    n = sft.alphabet_size
    follow = [[s for s in range(n) if sft.allows(u, s)] for u in range(n)]
    words = [(s,) for s in range(n)]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in follow[w[-1]]]
    return tuple(words)


def enumerate_words(sft: Sft, length: int) -> list[tuple[int, ...]]:
    """All admissible words of the given length, lexicographically ordered.

    This ordering is the canonical state indexing used by the transfer-matrix
    and word-graph modules.  The words are kept on the Sft, so they are
    freed with it.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    words = sft._words.get(length)
    if words is None:
        words = sft._words[length] = _enumerate(sft, length)
    return list(words)
