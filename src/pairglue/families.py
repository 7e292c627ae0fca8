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


def _labels(letters, n):
    """One label list per letter: ``X[i % n]`` is ``X<i mod n>`` (1-based),
    and so is ``X[i]`` for ``-n <= i < n``."""
    return [[f"{letter}{i or n}" for i in range(n)] for letter in letters]


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
    P, Q, R, S, A, Ab, B, Bb, C, Cb = _labels("P Q R S A Ab B Bb C Cb".split(), n)

    faces, involution = {}, []
    for i in range(1, n + 1):
        i0, i1, i2 = i % n, (i + 1) % n, (i + 2) % n
        faces[A[i0]] = (P[i0], P[i1], Q[i0])
        faces[Ab[i0]] = (R[i2], P[i2], Q[i1])
        faces[B[i0]] = (R[i0], P[i0], Q[i0])
        faces[Bb[i0]] = (S[i0], S[i1], R[i1])
        faces[C[i0]] = (S[i0], R[i0], Q[i0])
        faces[Cb[i0]] = (R[i1], Q[i0], S[i0])
        involution.extend([
            ((A[i0], 0), ("D", i - 1), True),
            ((Bb[i0], 0), ("Db", (i - 3) % n), True),
            ((B[i0], 0), (Ab[i - 2], 0), True),
            ((C[i0], 2), (Cb[i0], 1), True),
            ((A[i0], 2), (B[i0], 1), False),
            ((A[i0], 1), (Ab[i - 1], 1), True),
            ((B[i0], 2), (C[i0], 1), False),
            ((Ab[i0], 2), (Cb[i1], 0), False),
            ((C[i1], 0), (Bb[i0], 1), True),
            ((Bb[i0], 2), (Cb[i0], 2), False),
        ])
    faces["D"] = tuple(P[i % n] for i in range(1, n + 1))
    faces["Db"] = tuple(S[(k + 3) % n] for k in range(n))

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
    P, Q, R, S, A, Ab, B, Bb, C, Cb = _labels("P Q R S A Ab B Bb C Cb".split(), n)

    faces, involution = {}, []
    for i in range(1, n + 1):
        i0, i1, i2 = i % n, (i + 1) % n, (i + 2) % n
        faces[A[i0]] = (P[i0], P[i1], Q[i0])
        faces[Ab[i0]] = (P[i2], R[i2], Q[i2])
        faces[B[i0]] = (Q[i0], R[i1], P[i1])
        faces[Bb[i0]] = (R[i2], S[i2], S[i1])
        faces[C[i0]] = (Q[i - 1], R[i0], S[i - 1])
        faces[Cb[i0]] = (S[i0], Q[i0], R[i0])
        involution.extend([
            ((A[i0], 0), ("D", i - 1), True),
            ((Bb[i - 1], 1), ("Db", (i - 3) % n), False),
            ((Ab[i0], 0), (B[i1], 1), False),
            ((Cb[i0], 0), (C[i1], 2), True),
            ((A[i2], 2), (Ab[i0], 2), True),
            ((A[i0], 1), (B[i0], 2), True),
            ((Ab[i0], 1), (Cb[i2], 1), False),
            ((B[i0], 0), (C[i1], 0), True),
            ((Cb[i2], 2), (Bb[i0], 0), True),
            ((C[i2], 1), (Bb[i0], 2), False),
        ])
    faces["D"] = tuple(P[i % n] for i in range(1, n + 1))
    faces["Db"] = tuple(S[(k + 3) % n] for k in range(n))

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
