"""Exact integer matrices, Smith normal form, first homology.

The Smith normal form fuzz suite checks the full reconstruction law
U*m*V = D with unimodular transforms, using a test-local cofactor
determinant as the independent oracle.  ``h1`` is checked against the dense
path it replaced (``reference_h1``) and, for square matrices, against the
determinant; ``smith_normal_form`` against its previous implementation
(``reference_smith_normal_form``), transforms included.
"""

import random
import time

import pytest

from pairglue import (
    AbelianGroup,
    IntegerMatrix,
    Presentation,
    Word,
    abelianization_matrix,
    auto_simplify,
    build_family,
    build_m24,
    build_m25,
    h1,
    presentation_from_cw,
    presentation_from_pairings,
    reduced_family_presentation,
    smith_normal_form,
)
from pairglue.errors import DomainError


def cofactor_det(rows):
    """Test-local determinant by Laplace expansion (exact, slow, simple)."""
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


# --------------------------------------------------------- IntegerMatrix

def test_matrix_construction_and_accessors():
    m = IntegerMatrix([[1, 2], [3, 4]])
    assert m.num_rows == 2 and m.num_cols == 2
    assert m.rows == ((1, 2), (3, 4))
    assert m.transpose().rows == ((1, 3), (2, 4))
    with pytest.raises(DomainError):
        IntegerMatrix([[1, 2], [3]])


def test_matrix_multiplication_and_identity():
    m = IntegerMatrix([[1, 2], [3, 4]])
    assert m * IntegerMatrix.identity(2) == m
    assert (IntegerMatrix([[1, 2]]) * IntegerMatrix([[3], [4]])).rows == ((11,),)
    with pytest.raises(DomainError):
        IntegerMatrix([[1, 2]]) * IntegerMatrix([[1, 2]])


def test_matrix_determinant_against_cofactor_oracle():
    rng = random.Random(0xDE7)
    for _ in range(60):
        size = rng.randrange(5)
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert IntegerMatrix(rows).determinant() == cofactor_det(rows)


@pytest.mark.parametrize("rows", [
    [[0, 1], [0, 2]],                    # zero first column
    [[1, 2, 3], [2, 4, 5], [3, 6, 7]],   # column 1 vanishes after a step
])
def test_matrix_determinant_with_a_zero_pivot_column(rows):
    assert cofactor_det(rows) == 0
    assert IntegerMatrix(rows).determinant() == 0


def test_matrix_determinant_of_a_non_square_matrix():
    with pytest.raises(DomainError, match="non-square"):
        IntegerMatrix([[1, 2, 3], [4, 5, 6]]).determinant()


# ---------------------------------------------------------- AbelianGroup

def test_abelian_group_validation():
    with pytest.raises(DomainError):
        AbelianGroup(-1, ())
    with pytest.raises(DomainError):
        AbelianGroup(0, (1,))
    with pytest.raises(DomainError):
        AbelianGroup(0, (4, 2))  # divisibility chain violated


def test_abelian_group_formatting():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(0, (3, 12))) == "Z3 + Z12"
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(1, (5,))) == "Z5 + Z^1"


def test_abelian_group_order():
    assert AbelianGroup(0, (3, 6)).order() == 18
    assert AbelianGroup(0, ()).order() == 1
    assert AbelianGroup(1, (2,)).order() is None


# ------------------------------------------------- abelianization matrix

def test_abelianization_matrix_examples():
    p = Presentation(["c"], [Word.parse("c c c")])
    assert abelianization_matrix(p).rows == ((3,),)

    p1 = presentation_from_pairings(build_m24(1))
    m = abelianization_matrix(p1)
    assert m.num_rows == 4 and m.num_cols == 4
    target = Word.parse("a1 b1 -d")
    from pairglue import cyclic_normal_form
    for row, relator in zip(m.rows, p1.relators):
        if cyclic_normal_form(relator) == cyclic_normal_form(target):
            assert row == (1, 1, 0, -1)
            break
    else:
        raise AssertionError("expected relator not found")


# ------------------------------------------------------ smith normal form

def snf_properties(rows):
    m = IntegerMatrix(rows)
    d, u, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(cofactor_det([list(r) for r in u.rows])) == 1
    assert abs(cofactor_det([list(r) for r in v.rows])) == 1
    diag = [d.rows[i][i] for i in range(min(d.num_rows, d.num_cols))]
    for i in range(d.num_rows):
        for j in range(d.num_cols):
            if i != j:
                assert d.rows[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    return diag


def test_snf_frozen_examples():
    assert snf_properties([[1, 0], [0, 1]]) == [1, 1]
    assert snf_properties([[2, 4], [6, 8]]) == [2, 4]
    assert snf_properties([[3]]) == [3]
    assert snf_properties([[0, 0], [0, 0]]) == [0, 0]


def test_snf_random_fuzz():
    rng = random.Random(0x5A1F)
    for _ in range(250):
        rows_n = rng.randrange(1, 7)
        cols_n = rng.randrange(1, 7)
        rows = [[rng.randint(-20, 20) for _ in range(cols_n)]
                for _ in range(rows_n)]
        diag = snf_properties(rows)
        # invariant factors survive row/column permutation and transposition
        perm = list(range(rows_n))
        rng.shuffle(perm)
        shuffled = [rows[i] for i in perm]
        assert snf_properties(shuffled) == diag
        transposed = [list(col) for col in zip(*rows)]
        k = min(rows_n, cols_n)
        assert snf_properties(transposed)[:k] == diag[:k]


# ------------------------------------------------------------------- h1

def test_h1_edge_cases():
    assert str(h1(Presentation([], []))) == "0"
    assert str(h1(Presentation(["a", "b"], []))) == "Z^2"
    assert str(h1(Presentation(["c"], [Word.parse("c c c")]))) == "Z3"
    assert str(h1(Presentation(["c"], [Word(())]))) == "Z^1"


def test_h1_golden_m24():
    golden = {1: "Z3", 2: "Z3 + Z6", 3: "Z9", 4: "Z3 + Z12",
              5: "Z5 + Z5 + Z15", 6: "Z3 + Z9 + Z18"}
    for n, expected in golden.items():
        assert str(h1(presentation_from_pairings(build_m24(n)))) == expected


def test_h1_golden_m25():
    golden = {1: "Z3", 2: "Z3", 3: "Z2 + Z18", 4: "Z3 + Z3 + Z6",
              5: "Z5 + Z5 + Z15", 6: "Z8 + Z72"}
    for n, expected in golden.items():
        assert str(h1(presentation_from_pairings(build_m25(n)))) == expected


def pillow(p, q):
    """Two p-gons glued rim to rim with a twist of q: the lens space L(p,q)."""
    from pairglue import PairedComplex, Pairing
    verts = [f"v{i}" for i in range(p)]
    faces = {"F": tuple(verts), "G": tuple(verts)}
    involution = [(("F", k), ("G", k), True) for k in range(p)]
    return PairedComplex(verts, faces, involution,
                         [Pairing("f", "F", "G", q, 1)], name=f"pillow{p}")


def test_h1_lens_pillow_oracle():
    from pairglue import is_manifold, validate
    for p, q in ((2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 3), (8, 3)):
        c = pillow(p, q)
        assert validate(c) == []
        closed, chi = is_manifold(c)
        assert closed and chi == 0
        assert str(h1(presentation_from_pairings(c))) == f"Z{p}"


# ------------------------------------- sparse h1 vs the replaced dense path

def cell_matrix(presentation):
    """The abelianization matrix, one ``exponent_sum`` per cell."""
    return [[relator.exponent_sum(g) for g in presentation.generators]
            for relator in presentation.relators]


def reference_h1(presentation):
    """Reference: the dense path the sparse elimination replaced.

    Full Smith normal form of the transposed relator-by-generator matrix.
    """
    generators = presentation.generators
    if not presentation.relators:
        return AbelianGroup(len(generators), ())
    matrix = IntegerMatrix(cell_matrix(presentation)).transpose()
    d, _, _ = smith_normal_form(matrix)
    diagonal = [d.rows[i][i] for i in range(min(matrix.num_rows, matrix.num_cols))]
    nonzero = [x for x in diagonal if x]
    return AbelianGroup(len(generators) - len(nonzero),
                        tuple(x for x in nonzero if x >= 2))


def family_presentations(n):
    for family in ("m24", "m25"):
        c = build_family(family, n)
        yield (family, n, "pairing"), presentation_from_pairings(c)
        yield (family, n, "cw"), presentation_from_cw(c)


def random_presentation(rng):
    """Small random presentation; powers >= 2 leave no ±1 entry at all."""
    generators = [f"g{i}" for i in range(rng.randrange(9))]
    used = [g for g in generators if rng.random() < 0.8]
    power = rng.choice((1, 1, 2, 3))
    relators = []
    for _ in range(rng.randrange(11)):
        if not used or rng.random() < 0.1:
            relators.append(Word(()))
            continue
        letters = [(rng.choice(used), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 7))]
        relators.append(Word(letters * power))
    return Presentation(generators, relators)


def test_abelianization_matrix_matches_cell_by_cell_sums():
    rng = random.Random(0xAB1)
    cases = [random_presentation(rng) for _ in range(300)]
    cases += [p for n in (1, 2, 7) for _, p in family_presentations(n)]
    cases += [reduced_family_presentation(f, n) for f in ("m24", "m25") for n in (2, 5)]
    for p in cases:
        assert abelianization_matrix(p).rows == tuple(map(tuple, cell_matrix(p)))


def test_h1_matches_reference_on_families():
    for n in range(1, 41):
        for key, p in family_presentations(n):
            assert h1(p) == reference_h1(p), key


def test_h1_matches_reference_on_simplified_presentations():
    for n in range(1, 9):
        for family in ("m24", "m25"):
            simplified = auto_simplify(presentation_from_pairings(
                build_family(family, n)))
            assert h1(simplified) == reference_h1(simplified), (family, n)
            reduced = reduced_family_presentation(family, n)
            assert h1(reduced) == reference_h1(reduced), (family, n)


def test_h1_matches_reference_on_random_presentations():
    rng = random.Random(0x51F)
    seen = dict.fromkeys(("empty relator", "unused generator", "no unit entry",
                          "more relators", "fewer relators"), 0)
    for _ in range(600):
        p = random_presentation(rng)
        assert h1(p) == reference_h1(p), p
        rows = cell_matrix(p)
        entries = [x for row in rows for x in row if x]
        seen["empty relator"] += any(len(r) == 0 for r in p.relators)
        seen["unused generator"] += any(not any(col) for col in zip(*rows))
        seen["no unit entry"] += bool(entries) and all(abs(x) > 1 for x in entries)
        seen["more relators"] += len(p.relators) > len(p.generators)
        seen["fewer relators"] += len(p.relators) < len(p.generators)
    assert min(seen.values()) >= 50, seen


def test_h1_order_matches_determinant_of_square_matrices():
    square = {("m24", "pairing"), ("m24", "cw"), ("m25", "cw")}
    for n in (30, 50):
        for (family, _, route), p in family_presentations(n):
            m = abelianization_matrix(p)
            assert (m.num_rows == m.num_cols) == ((family, route) in square)
            if m.num_rows == m.num_cols:
                group = h1(p)
                assert group.rank == 0
                assert group.order() == abs(m.determinant()), (family, n, route)


def test_h1_scales_to_n_200():
    golden = {
        "m24": "Z25 + Z264866479547278633405159653525"
               " + Z2118931836378229067241277228200",
        "m25": "Z75 + Z280571172992510140037611932413038677189525"
               " + Z1122284691970040560150447729652154708758100",
    }
    presentations = {family: presentation_from_pairings(build_family(family, 200))
                     for family in golden}
    start = time.perf_counter()
    groups = {family: str(h1(p)) for family, p in presentations.items()}
    elapsed = time.perf_counter() - start
    assert groups == golden
    assert elapsed < 5.0, f"h1 of m24(200) and m25(200) took {elapsed:.2f} s"


def test_h1_routes_agree_at_n_100():
    for family in ("m24", "m25"):
        c = build_family(family, 100)
        assert h1(presentation_from_pairings(c)) == h1(presentation_from_cw(c))


# ------------------------------- smith_normal_form vs its previous version

def reference_smith_normal_form(matrix):
    """Reference: the previous implementation, column operations row by row."""
    num_rows = matrix.num_rows
    num_cols = matrix.num_cols
    a = [list(row) for row in matrix.rows]
    u = [[1 if i == j else 0 for j in range(num_rows)] for i in range(num_rows)]
    v = [[1 if i == j else 0 for j in range(num_cols)] for i in range(num_cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def add_row(i, j, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def find_pivot(t):
        best = None
        for i in range(t, num_rows):
            for j in range(t, num_cols):
                if a[i][j] and (best is None
                                or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(num_rows, num_cols):
        pivot = find_pivot(t)
        if pivot is None:
            break
        while True:
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if a[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, num_rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, num_cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if not dirty:
                offender = None
                for i in range(t + 1, num_rows):
                    for j in range(t + 1, num_cols):
                        if a[i][j] % a[t][t]:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)
            pivot = find_pivot(t)
        t += 1

    return (IntegerMatrix(a), IntegerMatrix(u), IntegerMatrix(v))


def test_snf_transforms_match_reference():
    rng = random.Random(0x5AF)
    cases = []
    for _ in range(300):
        rows_n, cols_n = rng.randrange(9), rng.randrange(9)
        bound = rng.choice((1, 3, 20))
        density = rng.choice((0.3, 1.0))
        cases.append([[rng.randint(-bound, bound) if rng.random() < density else 0
                       for _ in range(cols_n)] for _ in range(rows_n)])
    cases += [[[rng.randint(-20, 20) for _ in range(20)] for _ in range(20)]
              for _ in range(5)]
    cases += [cell_matrix(p) for _, p in family_presentations(6)]
    for rows in cases:
        m = IntegerMatrix(rows)
        assert smith_normal_form(m) == reference_smith_normal_form(m), rows
