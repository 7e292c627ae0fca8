"""Builders for the two built-in face-pairing families.

Both families glue one polyhedron, the drum: for ``n >= 1``, 4n vertices
``P_i, Q_i, R_i, S_i``, the lids ``D = P_1 ... P_n`` and ``Db = S_3 ... S_2``
and 6n triangles ``A_i, Ab_i, B_i, Bb_i, C_i, Cb_i``, indices read mod n and
labelled 1..n (:func:`_index_labels`).  The pairings a_i, b_i, c_i and d
take A_i, B_i, C_i and D to Ab_i, Bb_i, Cb_i and Db.

Each family is a template, a ``_Template`` record of its data for index i,
which :func:`_build` reads for every n: ``triangles``, the six cycles in the
order above, each vertex X_{i+s} as ``(X, s)``; ``involution``, the ten
edges of index i as ``(slot, slot, aligned)``, a slot ``(F, s, k)`` being
slot k of F_{i+s}, or of a lid its slot (i + s + k) mod n; ``anchors``, the
slots ``(F, k)`` of F_i whose edge classes x_i, y_i and z_i name; ``u`` and,
at even n, ``v``, the slot ``(F, s, k, reversed)`` of F_{1+s} naming that
generator (v is the preferred tree edge).  The involution is explicit: at
n = 1 and 2 a face repeats a vertex, so labels cannot fix it.
"""

import weakref
from collections import namedtuple
from itertools import chain, repeat

from .complex_core import PairedComplex, Pairing, _is_int
from .errors import DomainError

__all__ = ["M24", "M25", "build_family", "build_m24", "build_m25"]

M24 = "m24"
M25 = "m25"

_VERTEX_LETTERS = "PQRS"
_TRIANGLES = ("A", "Ab", "B", "Bb", "C", "Cb")
_LIDS = {"D": ("P", 0), "Db": ("S", 2)}  # each lid's cycle X_{i+shift}
_LETTERS = (*_VERTEX_LETTERS, *_TRIANGLES, *"abcxyz")

_Template = namedtuple("_Template", "triangles involution anchors u v", defaults=(None,))

_M24 = _Template(
    triangles=((("P", 0), ("P", 1), ("Q", 0)), (("R", 2), ("P", 2), ("Q", 1)),
               (("R", 0), ("P", 0), ("Q", 0)), (("S", 0), ("S", 1), ("R", 1)),
               (("S", 0), ("R", 0), ("Q", 0)), (("R", 1), ("Q", 0), ("S", 0))),
    involution=(
        (("A", 0, 0), ("D", -1, 0), True), (("Bb", 0, 0), ("Db", -3, 0), True),
        (("B", 0, 0), ("Ab", -2, 0), True), (("C", 0, 2), ("Cb", 0, 1), True),
        (("A", 0, 2), ("B", 0, 1), False), (("A", 0, 1), ("Ab", -1, 1), True),
        (("B", 0, 2), ("C", 0, 1), False), (("Ab", 0, 2), ("Cb", 1, 0), False),
        (("C", 1, 0), ("Bb", 0, 1), True), (("Bb", 0, 2), ("Cb", 0, 2), False)),
    anchors=(("A", 0), ("B", 1), ("C", 1)), u=("A", 0, 1, False))

# The class of the P_i Q_i edges runs against its anchor slots, hence the
# reversed flags; at even n it splits by parity into those of u and v.
_M25 = _Template(
    triangles=((("P", 0), ("P", 1), ("Q", 0)), (("P", 2), ("R", 2), ("Q", 2)),
               (("Q", 0), ("R", 1), ("P", 1)), (("R", 2), ("S", 2), ("S", 1)),
               (("Q", -1), ("R", 0), ("S", -1)), (("S", 0), ("Q", 0), ("R", 0))),
    involution=(
        (("A", 0, 0), ("D", -1, 0), True), (("Bb", -1, 1), ("Db", -3, 0), False),
        (("Ab", 0, 0), ("B", 1, 1), False), (("Cb", 0, 0), ("C", 1, 2), True),
        (("A", 2, 2), ("Ab", 0, 2), True), (("A", 0, 1), ("B", 0, 2), True),
        (("Ab", 0, 1), ("Cb", 2, 1), False), (("B", 0, 0), ("C", 1, 0), True),
        (("Cb", 2, 2), ("Bb", 0, 0), True), (("C", 2, 1), ("Bb", 0, 2), False)),
    anchors=(("A", 0), ("A", 1), ("B", 0)), u=("A", 0, 2, True), v=("A", 1, 2, True))


def _check_n(n):
    if not _is_int(n) or n < 1:
        raise DomainError(f"family parameter n must be a positive integer, got {n!r}")


def _index_labels(letters, n):
    """The label rule: per letter X, the row of labels X1 .. X<n> of X_1 .. X_n."""
    indices = [str(i) for i in range(1, n + 1)]
    return {letter: [letter + i for i in indices] for letter in letters}


def _rotated(row, shift):
    """Item i - 1 is ``row[(i - 1 + shift) % n]``: X_{i+shift} for a row of
    X_1..X_n.  A shift of 0 mod n returns ``row`` itself."""
    j = shift % len(row)
    return row[j:] + row[:j] if j else row


def _index_shift(n, step):
    """The vertex map X_i -> X_{i+step} of a member of parameter n."""
    return {label: image for row in _index_labels(_VERTEX_LETTERS, n).values()
            for label, image in zip(row, _rotated(row, step))}


def _build(template, n, name):
    """The member of parameter n of the family a template describes."""
    _check_n(n)
    rows = _index_labels(_LETTERS, n)

    def slots(face, shift, k):  # the slot of every index i = 1..n
        if face in _LIDS:
            return [(face, (i + shift + k) % n) for i in range(1, n + 1)]
        return zip(_rotated(rows[face], shift), repeat(k))

    # faces and edges go index by index, in template order, as documents list them
    faces = dict(chain.from_iterable(zip(*[
        zip(rows[face], zip(*[_rotated(rows[x], shift) for x, shift in cycle]))
        for face, cycle in zip(_TRIANGLES, template.triangles)])))
    faces.update((lid, tuple(_rotated(rows[x], s))) for lid, (x, s) in _LIDS.items())
    involution = chain.from_iterable(zip(*[
        zip(slots(*a), slots(*b), repeat(aligned))
        for a, b, aligned in template.involution]))
    pairings = [*chain.from_iterable(
        map(Pairing, rows[face.lower()], rows[face], rows[face + "b"])
        for face in "ABC"), Pairing("d", "D", "Db")]

    edge_names = [(generator, face, k, False)
                  for letter, (anchor, k) in zip("xyz", template.anchors)
                  for generator, face in zip(rows[letter], rows[anchor])]
    named = {"u": template.u}
    if template.v is not None and n % 2 == 0:
        named["v"] = template.v
    edge_names += [(generator, rows[face][shift % n], k, flag)
                   for generator, (face, shift, k, flag) in named.items()]
    return PairedComplex(
        chain.from_iterable(rows[letter] for letter in _VERTEX_LETTERS),
        faces, involution, pairings, name=name, n=n, edge_names=edge_names,
        preferred_tree=("v",) if "v" in named else ())


def build_m24(n):
    """First family.  Closed orientable for every n; one vertex class.

    >>> from pairglue.complex_core import cell_counts
    >>> tuple(cell_counts(build_m24(3)))
    (1, 10, 10, 1)
    """
    return _build(_M24, n, M24)


def build_m25(n):
    """Second family.  Closed orientable for every n; the vertex count and the
    splitting of one edge class depend on the parity of n.

    >>> from pairglue.complex_core import cell_counts
    >>> tuple(cell_counts(build_m25(4)))
    (2, 14, 13, 1)
    """
    return _build(_M25, n, M25)


# The live member of each (tag, n): an entry lasts as long as some caller
# holds the complex, so the map keeps nothing alive by itself.
_LIVE = weakref.WeakValueDictionary()


def build_family(family, n):
    """Dispatch on a family tag ("m24" or "m25"), sharing live members.

    While anyone holds the member of a (family, n), every later call returns
    that same object (complexes are immutable, and its analysis is computed
    once, on first use); once nothing holds it, the next call builds afresh.
    :func:`build_m24` and :func:`build_m25` always build a new complex.

    >>> build_family("m24", 3) is build_family("M24", 3)
    True
    """
    tag = str(family).lower()
    builder = {M24: build_m24, M25: build_m25}.get(tag)
    if builder is None:
        raise DomainError(f"unknown family {family!r} (expected m24 or m25)")
    # checked before the lookup: True == 1 would find the member of n = 1
    _check_n(n)
    member = _LIVE.get((tag, n))
    if member is None:
        member = _LIVE[(tag, n)] = builder(n)
    return member
