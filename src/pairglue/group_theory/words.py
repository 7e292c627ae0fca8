"""Words in a free group over named generators.

A word is a flat sequence of signed letters ``(name, +1|-1)``; no run-length
compression is applied at the data level.  Words are immutable: assigning to
an attribute raises AttributeError.  The text form used throughout the
package writes an inverse letter with a ``-`` prefix:

>>> w = Word.parse("a1 b3 -d")
>>> str(w)
'a1 b3 -d'
>>> str(w.inverse())
'd -b3 -a1'
"""

from ..complex_core import _Immutable, natural_key
from ..errors import DomainError

__all__ = ["Word", "cyclic_normal_form", "cyclic_reduce", "free_reduce"]


class Word(_Immutable):
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        normalized = []
        for name, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
            normalized.append((str(name), sign))
        object.__setattr__(self, "letters", tuple(normalized))

    def __reduce__(self):
        return (Word, (self.letters,))

    @classmethod
    def parse(cls, text):
        """Build a word from whitespace-separated tokens (``-x`` = inverse).

        A bare ``-`` names no generator and raises DomainError.
        """
        letters = []
        for token in text.split():
            if token == "-":
                raise DomainError("a bare '-' is not a letter")
            if token.startswith("-"):
                letters.append((token[1:], -1))
            else:
                letters.append((token, 1))
        return cls(letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        return _word(self.letters + other.letters)

    def __str__(self):
        return " ".join(name if sign == 1 else f"-{name}"
                        for name, sign in self.letters)

    def __repr__(self):
        return f"Word.parse({str(self)!r})"

    def inverse(self):
        return _word(_inverse_letters(self.letters))

    def generators(self):
        """The set of generator names occurring in the word."""
        return {name for name, _ in self.letters}

    def exponent_sum(self, generator):
        """Net exponent of one generator (abelianized image).

        >>> Word.parse("a b a -b a").exponent_sum("a")
        3
        """
        return sum(sign for name, sign in self.letters if name == generator)


def _word(letters):
    """A word on a tuple of letters that are already ``(str, +1|-1)`` pairs."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


def _inverse_letters(letters):
    """The letters of the inverse word, as a tuple."""
    return tuple([(name, -sign) for name, sign in reversed(letters)])


def free_reduce(word):
    """Cancel adjacent inverse pairs until none remain.  Idempotent.

    >>> str(free_reduce(Word.parse("a -b b a -a")))
    'a'
    """
    stack = []
    for name, sign in word.letters:
        if stack and stack[-1] == (name, -sign):
            stack.pop()
        else:
            stack.append((name, sign))
    return _word(tuple(stack))


def cyclic_reduce(word):
    """Freely reduce, then strip inverse first/last pairs."""
    letters = free_reduce(word).letters
    start, stop = 0, len(letters)
    while (stop - start >= 2
           and letters[start] == (letters[stop - 1][0], -letters[stop - 1][1])):
        start, stop = start + 1, stop - 1
    return _word(letters[start:stop])


def cyclic_normal_form(word):
    """Canonical representative of a relator up to rotation and inversion.

    The word is freely and cyclically reduced, then the lexicographically
    least sequence among all rotations of the result and of its inverse is
    returned (positive letters before inverses, generator names in natural
    order).  Two relators define the same cyclic class iff their normal forms
    are equal.

    >>> str(cyclic_normal_form(Word.parse("-a")))
    'a'
    >>> cyclic_normal_form(Word.parse("b -c -c")) == cyclic_normal_form(
    ...     Word.parse("c c -b"))
    True
    """
    reduced = cyclic_reduce(word)
    if not reduced.letters:
        return reduced
    candidates = []
    for base in (reduced.letters, _inverse_letters(reduced.letters)):
        for r in range(len(base)):
            candidates.append(base[r:] + base[:r])
    key = {name: natural_key(name) for name, _ in reduced.letters}
    # -sign puts positive letters before their inverses
    return _word(min(candidates, key=lambda letters: [
        (key[name], -sign) for name, sign in letters]))
