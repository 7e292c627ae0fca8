"""Words in a free group over named generators.

A word is a flat sequence of signed letters ``(name, +1|-1)``; no run-length
compression is applied at the data level; a letter that is not such a pair,
with a str name and an int sign (a bool is refused), raises DomainError, and
so do letters that cannot be read as a sequence.
Words are immutable: assigning to an attribute raises AttributeError.  The
text form used throughout the package writes an inverse letter with a ``-``
prefix:

>>> w = Word.parse("a1 b3 -d")
>>> str(w)
'a1 b3 -d'
>>> str(w.inverse())
'd -b3 -a1'
"""

from ..complex_core import _Immutable, _is_int, natural_key
from ..errors import DomainError

__all__ = ["Word", "cyclic_normal_form", "cyclic_reduce", "free_reduce"]


class Word(_Immutable):
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        try:
            letters = iter(letters)
        except TypeError:
            raise DomainError(f"a word is a sequence of letters, "
                              f"got {letters!r}") from None
        normalized = []
        for letter in letters:
            try:
                name, sign = letter
            except (TypeError, ValueError):
                raise DomainError(f"a letter is a (name, sign) pair, "
                                  f"got {letter!r}") from None
            if not isinstance(name, str):
                raise DomainError(f"letter name is not a str: {name!r}")
            if not _is_int(sign) or sign not in (1, -1):
                raise DomainError(
                    f"letter sign must be +1 or -1, got {sign!r}")
            normalized.append((name, int(sign)))
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
        if not isinstance(other, Word):
            return NotImplemented
        return _word(self.letters + other.letters)

    def __str__(self):
        return " ".join(name if sign == 1 else f"-{name}"
                        for name, sign in self.letters)

    def __repr__(self):
        if all(_reads_back(name) for name, _ in self.letters):
            return f"Word.parse({str(self)!r})"
        return f"Word({list(self.letters)!r})"

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


def _reads_back(name):
    """Whether a generator name reads back as itself from the text form: it
    is not empty, holds no whitespace and does not start with ``-``."""
    return name.split() == [name] and not name.startswith("-")


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
    return _word(_free_reduction(word.letters))


def _free_reduction(letters):
    """The free reduction of an iterable of ``(str, +1|-1)`` letters, as a
    tuple, in one pass: each letter cancels the last one kept when it is
    its inverse."""
    stack = []
    for letter in letters:
        if stack and stack[-1][1] != letter[1] and stack[-1][0] == letter[0]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def cyclic_reduce(word):
    """Freely reduce, then strip inverse first/last pairs."""
    return _cyclic_core(free_reduce(word).letters)


def _cyclic_core(letters):
    """The cyclic reduction of freely reduced ``letters``, as a word."""
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
