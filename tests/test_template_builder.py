"""The template builder against the hand-written builders it replaced.

``reference_m24`` and ``reference_m25`` are the two per-family loops that
built the families before each became a template; they are kept here as an
oracle, so that every member the template builder makes is checked against
an independent spelling of the same construction.
"""

import pytest

from pairglue import (PairedComplex, Pairing, build_m24, build_m25,
                      serialize_complex)


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


def reference_m24(n):
    """The first family as its own loop."""
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
                         name="m24", n=n, edge_names=edge_names)


def reference_m25(n):
    """The second family as its own loop."""
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
                         name="m25", n=n, edge_names=edge_names,
                         preferred_tree=preferred_tree)


@pytest.mark.parametrize("build, reference", [(build_m24, reference_m24),
                                              (build_m25, reference_m25)],
                         ids=["m24", "m25"])
def test_template_builder_matches_the_reference_loops(build, reference):
    for n in range(1, 61):
        member, expected = build(n), reference(n)
        assert serialize_complex(member) == serialize_complex(expected), n
        assert list(member.faces) == list(expected.faces), n
        assert list(member.involution.items()) \
            == list(expected.involution.items()), n
        assert member.edge_names == expected.edge_names, n
        assert member.preferred_tree == expected.preferred_tree, n
        assert member.same_structure(expected), n
