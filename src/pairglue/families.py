"""Builders for the two built-in face-pairing families.

Both families share the same cell inventory: for a parameter ``n >= 1`` the
polyhedron has 4n boundary vertices ``P_i, Q_i, R_i, S_i`` (indices mod n,
written 1-based), 6n + 2 triangular/polygonal faces and 3n + 1 pairings named
``a_1..a_n, b_1..b_n, c_1..c_n, d``.  The families differ in how the faces sit
around the polyhedron, which changes every derived invariant downstream.

The ``d`` pairing always identifies the top n-gon ``D = P_1 ... P_n`` with the
bottom n-gon ``Db`` whose boundary list is the S-cycle shifted by two
(``S_3 S_4 ... S_1 S_2``), uniformly in n.
"""

import weakref

from .complex_core import PairedComplex, Pairing, _is_int
from .errors import DomainError

__all__ = ["M24", "M25", "build_family", "build_m24", "build_m25"]

M24 = "m24"
M25 = "m25"


def _check_n(n):
    if not _is_int(n) or n < 1:
        raise DomainError(f"family parameter n must be a positive integer, got {n!r}")


def _idx(i, n):
    """1-based index arithmetic modulo n."""
    return (i - 1) % n + 1


def _labellers(letters, n):
    """One label function per letter: ``X(i)`` is ``X<i mod n>`` (1-based)."""
    return [lambda i, letter=letter: f"{letter}{_idx(i, n)}"
            for letter in letters]


def _vertices(n):
    return [f"{letter}{i}" for letter in "PQRS" for i in range(1, n + 1)]


def _pairings(n):
    out = []
    for letter, src, tgt in (("a", "A", "Ab"), ("b", "B", "Bb"), ("c", "C", "Cb")):
        out.extend(Pairing(f"{letter}{i}", f"{src}{i}", f"{tgt}{i}")
                   for i in range(1, n + 1))
    out.append(Pairing("d", "D", "Db"))
    return out


def _edge_names(n, *anchors):
    """Edge-name metadata: generator x_i (then y_i, z_i) names the edge class
    of slot k of face F_i, for the anchors (F, k) in turn."""
    return [(f"{name}{i}", f"{face}{i}", k, False)
            for name, (face, k) in zip("xyz", anchors)
            for i in range(1, n + 1)]


def build_m24(n):
    """First family.  Closed orientable for every n; one vertex class.

    >>> from pairglue.complex_core import cell_counts
    >>> tuple(cell_counts(build_m24(3)))
    (1, 10, 10, 1)
    """
    _check_n(n)
    P, Q, R, S = _labellers("PQRS", n)

    faces = {}
    for i in range(1, n + 1):
        faces[f"A{i}"] = (P(i), P(i + 1), Q(i))
        faces[f"Ab{i}"] = (R(i + 2), P(i + 2), Q(i + 1))
        faces[f"B{i}"] = (R(i), P(i), Q(i))
        faces[f"Bb{i}"] = (S(i), S(i + 1), R(i + 1))
        faces[f"C{i}"] = (S(i), R(i), Q(i))
        faces[f"Cb{i}"] = (R(i + 1), Q(i), S(i))
    faces["D"] = tuple(P(i) for i in range(1, n + 1))
    faces["Db"] = tuple(S(k + 3) for k in range(n))

    involution = []
    for i in range(1, n + 1):
        involution.extend([
            ((f"A{i}", 0), ("D", i - 1), True),
            ((f"Bb{i}", 0), ("Db", (i - 3) % n), True),
            ((f"B{i}", 0), (f"Ab{_idx(i - 2, n)}", 0), True),
            ((f"C{i}", 2), (f"Cb{i}", 1), True),
            ((f"A{i}", 2), (f"B{i}", 1), False),
            ((f"A{i}", 1), (f"Ab{_idx(i - 1, n)}", 1), True),
            ((f"B{i}", 2), (f"C{i}", 1), False),
            ((f"Ab{i}", 2), (f"Cb{_idx(i + 1, n)}", 0), False),
            ((f"C{_idx(i + 1, n)}", 0), (f"Bb{i}", 1), True),
            ((f"Bb{i}", 2), (f"Cb{i}", 2), False),
        ])

    edge_names = _edge_names(n, ("A", 0), ("B", 1), ("C", 1))
    edge_names.append(("u", "A1", 1, False))

    return PairedComplex(_vertices(n), faces, involution, _pairings(n),
                         name=M24, n=n, edge_names=edge_names)


def build_m25(n):
    """Second family.  Closed orientable for every n; the vertex count and the
    splitting of one edge class depend on the parity of n.

    >>> from pairglue.complex_core import cell_counts
    >>> tuple(cell_counts(build_m25(4)))
    (2, 14, 13, 1)
    """
    _check_n(n)
    P, Q, R, S = _labellers("PQRS", n)

    faces = {}
    for i in range(1, n + 1):
        faces[f"A{i}"] = (P(i), P(i + 1), Q(i))
        faces[f"Ab{i}"] = (P(i + 2), R(i + 2), Q(i + 2))
        faces[f"B{i}"] = (Q(i), R(i + 1), P(i + 1))
        faces[f"Bb{i}"] = (R(i + 2), S(i + 2), S(i + 1))
        faces[f"C{i}"] = (Q(i - 1), R(i), S(i - 1))
        faces[f"Cb{i}"] = (S(i), Q(i), R(i))
    faces["D"] = tuple(P(i) for i in range(1, n + 1))
    faces["Db"] = tuple(S(k + 3) for k in range(n))

    involution = []
    for i in range(1, n + 1):
        involution.extend([
            ((f"A{i}", 0), ("D", i - 1), True),
            ((f"Bb{_idx(i - 1, n)}", 1), ("Db", (i - 3) % n), False),
            ((f"Ab{i}", 0), (f"B{_idx(i + 1, n)}", 1), False),
            ((f"Cb{i}", 0), (f"C{_idx(i + 1, n)}", 2), True),
            ((f"A{_idx(i + 2, n)}", 2), (f"Ab{i}", 2), True),
            ((f"A{i}", 1), (f"B{i}", 2), True),
            ((f"Ab{i}", 1), (f"Cb{_idx(i + 2, n)}", 1), False),
            ((f"B{i}", 0), (f"C{_idx(i + 1, n)}", 0), True),
            ((f"Cb{_idx(i + 2, n)}", 2), (f"Bb{i}", 0), True),
            ((f"C{_idx(i + 2, n)}", 1), (f"Bb{i}", 2), False),
        ])

    edge_names = _edge_names(n, ("A", 0), ("A", 1), ("B", 0))
    # The class containing the P_i Q_i edges is traversed against the stored
    # slot direction of its anchor, hence the reversed flag; for even n the
    # class splits by parity into two generators u and v, and v is the
    # preferred tree edge (the complex then has two vertex classes).
    edge_names.append(("u", "A1", 2, True))
    preferred_tree = ()
    if n % 2 == 0:
        edge_names.append(("v", "A2", 2, True))
        preferred_tree = ("v",)

    return PairedComplex(_vertices(n), faces, involution, _pairings(n),
                         name=M25, n=n, edge_names=edge_names,
                         preferred_tree=preferred_tree)


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
