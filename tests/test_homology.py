"""Exact integer matrices, Smith normal form, first homology.

The Smith normal form fuzz suite checks the full reconstruction law
U*m*V = D with unimodular transforms, using a test-local cofactor
determinant as the independent oracle.  ``smith_normal_form`` and ``h1``
run the same sparse routine, so both are checked against a dense one-pass
Smith normal form kept here (``reference_smith_normal_form``), never
against each other.  ``smith_normal_form`` must give the reference's D, on
random, sparse, rectangular, rank-deficient and family matrices, while U
and V need only meet the contract, and on dense 20x20 matrices be smaller
than the reference's.  ``h1`` is checked against the reference's diagonal
(``reference_h1``), for square matrices against the determinant, and for
both families against the closed form of its order (``closed_form_order``:
m25 up to n = 2000 and m24 up to n = 1000).  The rows that the unit-pivot
sweep of the sparse routine leaves for its second sweep are bounded in
number, and that sweep is checked against the reference on matrices the
first cannot touch: cyclic bands with a dense border row and column, like
m24's, and sparse rectangular matrices without a ±1 entry.
"""

import functools
import pickle
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
from pairglue.group_theory import homology


def cofactor_det(rows):
    """Test-local determinant by Laplace expansion along the rows in order
    (exact, simple); each minor, fixed by its first row and the columns it
    keeps, is expanded once, so 8x8 takes milliseconds."""

    @functools.cache
    def minor(k, cols):
        if k == len(rows):
            return 1
        return sum((-1) ** pos * rows[k][j] * minor(k + 1, cols[:pos] + cols[pos + 1:])
                   for pos, j in enumerate(cols) if rows[k][j])

    return minor(0, tuple(range(len(rows))))


# --------------------------------------------------------- IntegerMatrix

def test_matrix_construction_and_accessors():
    m = IntegerMatrix([[1, 2], [3, 4]])
    assert m.num_rows == 2 and m.num_cols == 2
    assert m.rows == ((1, 2), (3, 4))
    assert m.transpose().rows == ((1, 3), (2, 4))
    with pytest.raises(DomainError):
        IntegerMatrix([[1, 2], [3]])


def test_non_integer_entries_are_refused_not_truncated():
    from fractions import Fraction

    for bad in (2.7, 3.0, "3", Fraction(3), Fraction(7, 2)):
        with pytest.raises(DomainError, match="not an integer"):
            IntegerMatrix([[bad, 0], [0, 3]])
        with pytest.raises(DomainError, match="not an integer"):
            AbelianGroup(0, (3, bad))
        with pytest.raises(DomainError, match="not an integer"):
            AbelianGroup(bad, ())
    # rows, or a row, that cannot be read are refused the same way
    for bad in (5, [5], [[1], 5]):
        with pytest.raises(DomainError, match="not a sequence"):
            IntegerMatrix(bad)
    # a plain list is not a matrix, and an identity size is a count
    with pytest.raises(DomainError, match=r"matrix is not an IntegerMatrix: \[\[1, 2\]\]"):
        smith_normal_form([[1, 2]])
    for bad in (2.5, -1, True, "2"):
        with pytest.raises(DomainError, match=f"identity size {bad!r} is not"):
            IntegerMatrix.identity(bad)
    assert IntegerMatrix.identity(0).rows == ()
    # an int subclass is stored as a plain int
    class Count(int):
        pass

    assert IntegerMatrix([[Count(1), 0], [0, 3]]).rows == ((1, 0), (0, 3))
    assert type(IntegerMatrix([[Count(1)]]).rows[0][0]) is int
    assert AbelianGroup(Count(1), (3,)) == AbelianGroup(1, (3,))


def test_bools_are_refused_as_integers():
    # True == 1, but a bool is a flag, not a rank or a matrix entry
    with pytest.raises(DomainError, match="free rank True is not an integer"):
        AbelianGroup(True, ())
    with pytest.raises(DomainError,
                       match="invariant factor True is not an integer"):
        AbelianGroup(0, (True, 2))
    with pytest.raises(DomainError, match="matrix entry True is not an integer"):
        IntegerMatrix([[True, 2]])


def test_matrix_multiplication_and_identity():
    m = IntegerMatrix([[1, 2], [3, 4]])
    assert m * IntegerMatrix.identity(2) == m
    assert (IntegerMatrix([[1, 2]]) * IntegerMatrix([[3], [4]])).rows == ((11,),)
    with pytest.raises(DomainError):
        IntegerMatrix([[1, 2]]) * IntegerMatrix([[1, 2]])


def test_a_matrix_with_no_rows_keeps_its_width():
    # a presentation with no relators has a 0 x (generators) matrix, and its
    # Smith normal form keeps V square on the generators
    m = abelianization_matrix(Presentation(["a", "b"], []))
    assert (m.num_rows, m.num_cols) == (0, 2)
    d, u, v = smith_normal_form(m)
    assert (d.num_rows, d.num_cols) == (0, 2)
    assert u == IntegerMatrix.identity(0) and v == IntegerMatrix.identity(2)
    assert u * m * v == d
    # a 3 x 0 matrix transposes to 0 x 3, and back
    tall = IntegerMatrix([[], [], []])
    wide = tall.transpose()
    assert (wide.num_rows, wide.num_cols) == (0, 3)
    assert wide.transpose() == tall
    assert (tall * IntegerMatrix([], 2)).rows == ((0, 0),) * 3
    # the width is part of the value: 0 x 2 is not 0 x 3
    narrow = IntegerMatrix([], num_cols=2)
    assert narrow == m and narrow != wide and hash(narrow) != hash(wide)
    assert repr(wide) == "IntegerMatrix([], num_cols=3)"
    assert pickle.loads(pickle.dumps(wide)) == wide
    assert IntegerMatrix([[1, 2]], 2).num_cols == 2
    with pytest.raises(DomainError, match="do not have 3 columns"):
        IntegerMatrix([[1, 2]], 3)
    for bad in (-1, 2.0, True, "2"):
        with pytest.raises(DomainError, match="column count"):
            IntegerMatrix([], bad)


@pytest.mark.parametrize("other", [5, 2.0, None, [[1]], ((1,),)])
def test_matrix_times_a_non_matrix_is_a_type_error(other):
    # __mul__ returns NotImplemented, so Python raises TypeError for both
    # operand orders instead of reading attributes the operand lacks
    assert IntegerMatrix([[1]]).__mul__(other) is NotImplemented
    with pytest.raises(TypeError):
        IntegerMatrix([[1]]) * other
    with pytest.raises(TypeError):
        other * IntegerMatrix([[1]])


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
    with pytest.raises(DomainError, match="not a sequence"):
        AbelianGroup(0, 5)


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

def assert_snf_contract(m, d, u, v):
    """U*m*V = D with U and V unimodular: their determinant by
    ``cofactor_det`` up to 10x10, and beyond by ``IntegerMatrix.determinant``,
    which is checked against ``cofactor_det`` above."""
    assert u * m * v == d
    for factor in (u, v):
        det = (cofactor_det(factor.rows) if factor.num_rows <= 10
               else factor.determinant())
        assert abs(det) == 1


def snf_properties(rows):
    m = IntegerMatrix(rows)
    d, u, v = smith_normal_form(m)
    assert_snf_contract(m, d, u, v)
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
    # blocks that need a gcd/lcm step, or a sign moved into U
    assert snf_properties([[2, 0], [0, 3]]) == [1, 6]
    assert snf_properties([[4, 0], [0, 6]]) == [2, 12]
    assert snf_properties([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]
    assert snf_properties([[-2]]) == [2]
    assert snf_properties([[0, -3], [5, 0]]) == [1, 15]


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
    for bad in (5, None, [["c"], []]):
        for function in (h1, abelianization_matrix):
            with pytest.raises(DomainError, match="presentation is not a Presentation"):
                function(bad)


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


# ------------------------------------------- sparse h1 vs a dense reference

def cell_matrix(presentation):
    """The abelianization matrix, one ``exponent_sum`` per cell."""
    return [[relator.exponent_sum(g) for g in presentation.generators]
            for relator in presentation.relators]


def reference_h1(presentation):
    """Reference: the diagonal of ``reference_smith_normal_form``, a dense
    elimination independent of the sparse routine that ``h1`` and
    ``smith_normal_form`` share, on the transposed relator-by-generator
    matrix.
    """
    generators = presentation.generators
    if not presentation.relators:
        return AbelianGroup(len(generators), ())
    matrix = IntegerMatrix(cell_matrix(presentation)).transpose()
    d, _, _ = reference_smith_normal_form(matrix)
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


def closed_form_order(family, n):
    """|H1| of a family member in closed form, by O(n) big-integer additions.

    The abelianized relators of the scripted presentation form a circulant
    with symbol f(t) = 2 + t + 2t^2 (m24) or t^2 + 3t + 1 (m25), plus the
    lid rows; the product of f over the n-th roots of unity gives
    |H1(m24(n))| = 3n (2^(n+1) - L_n) / 5, with L_0 = 2, L_1 = -1 and
    L_n = -L_(n-1) - 4 L_(n-2), and |H1(m25(n))| = 3n F_n^2, halved for
    even n (F_n the Fibonacci numbers).
    """
    if family == "m24":
        previous, lucas = 2, -1
        for _ in range(n - 1):
            previous, lucas = lucas, -lucas - 4 * previous
        order, rest = divmod(3 * n * (2 ** (n + 1) - lucas), 5)
    else:
        fib, following = 0, 1
        for _ in range(n):
            fib, following = following, fib + following
        order, rest = divmod(3 * n * fib * fib, 2 - n % 2)
    assert rest == 0, (family, n)
    return order


def test_h1_order_matches_closed_form():
    members = [(family, n) for family in ("m24", "m25") for n in range(1, 41)]
    members += [("m24", 300), ("m24", 600), ("m24", 1000), ("m25", 1000),
                ("m25", 2000)]
    for family, n in members:
        group = h1(presentation_from_pairings(build_family(family, n)))
        assert group.rank == 0
        assert group.order() == closed_form_order(family, n), (family, n)


def test_unit_pivot_sweep_leaves_small_cores(monkeypatch):
    # the shortest-row rule of the first sweep leaves few sparse rows and
    # columns for the second, whose first pivot choice sees them: at most 4x3
    # for m25 at any n, and at most n//2 + 1 each for m24, on both routes
    cores, columns = [], []
    least_row, clear_unit = homology._least_row, homology._clear_unit

    def spied_clear(rows, cols, *rest):
        columns[:] = [cols]
        return clear_unit(rows, cols, *rest)

    def spied_least(rows, candidates, j):
        if not cores:
            (cols,) = columns
            assert sum(map(len, cols)) == sum(map(len, rows.values()))
            cores.append((len(rows), sum(1 for column in cols if column)))
        return least_row(rows, candidates, j)

    monkeypatch.setattr(homology, "_clear_unit", spied_clear)
    monkeypatch.setattr(homology, "_least_row", spied_least)

    def core_shape(p):
        cores.clear()
        columns.clear()
        h1(p)
        assert cores, p
        return cores[0]

    for n in range(1, 61):
        for family, bound in (("m25", (4, 3)), ("m24", (n // 2 + 1,) * 2)):
            c = build_family(family, n)
            for route in (presentation_from_pairings, presentation_from_cw):
                rows, cols = core_shape(route(c))
                assert rows <= bound[0] and cols <= bound[1], (family, n, rows, cols)
    rows, cols = core_shape(presentation_from_pairings(build_m25(1000)))
    assert rows <= 4 and cols <= 3, (rows, cols)


def matrix_presentation(rows):
    """A presentation whose abelianization matrix is ``rows``."""
    generators = [f"g{k}" for k in range(len(rows[0]))]
    return Presentation(generators, [
        Word([(g, 1 if x > 0 else -1) for g, x in zip(generators, row)
              for _ in range(abs(x))]) for row in rows])


def band_with_border(rng, k):
    """A cyclic tridiagonal k x k band, wrap-around corners included, plus a
    dense last row and column, as m24's core is after the unit sweep; no
    entry is ±1.  The band is circulant (as m24's 4, 7, 4) or random."""
    values = [x for x in range(-9, 10) if abs(x) > 1]
    circulant = [rng.choice(values) for _ in range(3)]
    rows = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k):
        for offset, x in zip((-1, 0, 1), circulant):
            rows[i][(i + offset) % k] = (x if rng.random() < 0.5
                                         else rng.choice(values))
        rows[i][k] = rng.choice(values)
    border = rng.choice(values)
    rows[k] = [border if rng.random() < 0.7 else rng.choice(values)
               for _ in range(k + 1)]
    return rows


def test_sparse_diagonal_matches_the_dense_route():
    """``h1`` against the diagonal of ``reference_smith_normal_form`` on the
    matrix and against ``reference_h1`` on its transpose, on matrices
    without a ±1 entry, so the second sweep does all the work.  A
    pass that records a pivot without coming back to the column it started
    in gets m24(8) and many bands wrong."""
    rng = random.Random(0xBA2D)
    cases = [band_with_border(rng, k) for k in rng.choices(range(2, 31), k=40)]
    for _ in range(300):
        rows_n, cols_n = rng.randint(1, 9), rng.randint(1, 9)
        cases.append([[rng.choice((-6, -4, -3, -2, 2, 3, 4, 6, 9))
                       if rng.random() < 0.3 else 0 for _ in range(cols_n)]
                      for _ in range(rows_n)])
    torsion = 0
    for rows in cases:
        p = matrix_presentation(rows)
        d, _, _ = reference_smith_normal_form(IntegerMatrix(rows))
        diagonal = [x for x in (d.rows[i][i] for i in range(min(d.num_rows, d.num_cols)))
                    if x]
        dense = AbelianGroup(len(rows[0]) - len(diagonal),
                             tuple(x for x in diagonal if x >= 2))
        assert h1(p) == dense == reference_h1(p), rows
        torsion += len(dense.invariant_factors) >= 2
    assert torsion >= 50, torsion
    assert str(h1(presentation_from_pairings(build_m24(8)))) == "Z21 + Z168"


# ----------------------------- smith_normal_form vs a dense one-pass reference

def reference_smith_normal_form(matrix):
    """Reference: an earlier dense implementation, one pass with the row and
    column Euclid steps interleaved, column operations row by row."""
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


def entry_bits(*matrices):
    return max(abs(x).bit_length() for m in matrices for row in m.rows for x in row)


def test_snf_matches_reference_with_smaller_transforms():
    """D is the previous implementation's; U and V are other valid transforms,
    and on dense 20x20 matrices smaller ones."""
    rng = random.Random(0x5AF)
    cases = []
    for _ in range(300):
        rows_n, cols_n = rng.randrange(9), rng.randrange(9)
        bound = rng.choice((1, 3, 20))
        density = rng.choice((0.3, 1.0))
        cases.append([[rng.randint(-bound, bound) if rng.random() < density else 0
                       for _ in range(cols_n)] for _ in range(rows_n)])
    dense = [[[rng.randint(-20, 20) for _ in range(20)] for _ in range(20)]
             for _ in range(5)]
    cases += dense
    cases += [cell_matrix(p) for _, p in family_presentations(6)]
    for rows in cases:
        m = IntegerMatrix(rows)
        d, u, v = smith_normal_form(m)
        reference_d, reference_u, reference_v = reference_smith_normal_form(m)
        assert d == reference_d, rows
        assert_snf_contract(m, d, u, v)
        if rows in dense:
            assert entry_bits(u, v) < entry_bits(reference_u, reference_v)


def test_snf_of_rank_deficient_products_matches_reference():
    """Products L*R through k = 1..4 inner columns: the first pass runs out of
    pivots before the last row or column, on square and rectangular shapes."""
    rng = random.Random(0x2A4C)
    seen = {"deficient square": 0, "deficient rectangular": 0}
    for _ in range(300):
        rows_n, cols_n, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 4)
        left = IntegerMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows_n)])
        right = IntegerMatrix([[rng.randint(-5, 5) for _ in range(cols_n)] for _ in range(k)])
        m = left * right
        d, u, v = smith_normal_form(m)
        assert d == reference_smith_normal_form(m)[0], m
        assert_snf_contract(m, d, u, v)
        rank = sum(1 for i in range(min(rows_n, cols_n)) if d.rows[i][i])
        assert rank <= k
        if rank < min(rows_n, cols_n):
            seen["deficient square" if rows_n == cols_n else "deficient rectangular"] += 1
    assert min(seen.values()) >= 20, seen


# ------------------------------------------ the Bezout step of the sparse pass

def seed_one_dense_matrices():
    """The 20 dense 20x20 matrices with entries in [-20, 20] that the
    benchmark and CI draw with seed 1."""
    rng = random.Random(1)
    return [IntegerMatrix([[rng.randint(-20, 20) for _ in range(20)]
                           for _ in range(20)]) for _ in range(20)]


def test_dense_snf_stays_within_its_row_step_budget(monkeypatch):
    """A Bezout step makes the pivot of most dense columns a 1, so one
    exact sweep clears the column: about 232 row steps per matrix, where
    the rounded Euclid sweeps alone took 849."""
    steps = []
    subtract = homology._subtract_row

    def counted(*args):
        steps.append(None)
        subtract(*args)

    monkeypatch.setattr(homology, "_subtract_row", counted)
    matrices = seed_one_dense_matrices()
    for m in matrices:
        d, u, v = smith_normal_form(m)
        assert d == reference_smith_normal_form(m)[0], m
        assert_snf_contract(m, d, u, v)
    assert len(steps) <= 300 * len(matrices), len(steps) / len(matrices)


def test_h1_entries_stay_small_on_family_members(monkeypatch):
    """The Bezout step only takes a mate whose support lies inside the pivot
    row's; without that condition m24's dense border row spreads into the
    band and the entries reach about 100n bits.  With it they stay near 2n
    (m24) and 1.4n (m25)."""
    n = 400
    bits = []
    subtract = homology._subtract_row

    def measured(rows, cols, i, f, pivot_row):
        subtract(rows, cols, i, f, pivot_row)
        bits.append(max(abs(x).bit_length()
                        for x in (*rows.get(i, {}).values(), *pivot_row.values())))

    monkeypatch.setattr(homology, "_subtract_row", measured)
    for family, first in (("m24", 25), ("m25", 75)):
        bits.clear()
        group = h1(presentation_from_pairings(build_family(family, n)))
        assert group.rank == 0 and group.order() == closed_form_order(family, n)
        assert group.invariant_factors[0] == first
        assert len(group.invariant_factors) == 3, group
        assert max(bits) < 4 * n, (family, max(bits))


def spy_bezout(monkeypatch):
    """Record each Bezout attempt as (pivot before, pivot after)."""
    calls = []
    step = homology._bezout_pivot

    def spied(rows, cols, r, j, u):
        before = rows[r][j]
        calls.append((before, step(rows, cols, r, j, u)))
        return calls[-1][1]

    monkeypatch.setattr(homology, "_bezout_pivot", spied)
    return calls


@pytest.mark.parametrize("rows, first", [
    # pivot -2, mate -3 inside its support: the step fires
    ([[-2, 4, 6], [-3, 6, 0], [4, 0, 2]], (-2, 1)),
    # 3 is prime to the pivot 2, but its row reaches column 1 and the
    # pivot row does not: refused
    ([[2, 0, 0], [3, 5, 0], [4, 0, 7]], (2, 2)),
    # no entry of column 0 is prime to 2: the rounded sweep runs
    ([[2, 4, 6], [4, 6, 2], [6, 2, 4]], (2, 2)),
    # rank 1, four rows by three columns: the step fires
    ([[2, 4, 6], [3, 6, 9], [5, 10, 15], [7, 14, 21]], (2, 1)),
    # a column of two rows is left to the rounded sweep: never tried
    ([[2, 4], [3, 5]], None),
])
def test_bezout_step_branches(monkeypatch, rows, first):
    calls = spy_bezout(monkeypatch)
    m = IntegerMatrix(rows)
    d, u, v = smith_normal_form(m)
    assert (calls[0] if calls else None) == first
    assert d == reference_smith_normal_form(m)[0]
    assert_snf_contract(m, d, u, v)
    p = matrix_presentation(rows)
    assert h1(p) == reference_h1(p)


def test_bezout_step_with_a_unit_mate():
    """A mate b = -1 gives s = 0 and t = b: the pivot row becomes -(mate)
    and the mate row p + 3*mate.  The sparse pass never meets this case, as
    its pivot is the least entry of the column, so the step is driven
    directly; the least |b| wins over the mate 2."""
    rows = {0: {0: 3, 1: 2}, 1: {0: -1, 1: 5}, 2: {0: 2}}
    cols = [{0, 1, 2}, {0, 1}]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert homology._bezout_pivot(rows, cols, 0, 0, u) == 1
    assert rows == {0: {0: 1, 1: -5}, 1: {1: 17}, 2: {0: 2}}
    assert cols == [{0, 2}, {0, 1}]
    assert u == [[0, -1, 0], [1, 3, 0], [0, 0, 1]]
    assert IntegerMatrix(u) * IntegerMatrix([[3, 2], [-1, 5], [2, 0]]) == \
        IntegerMatrix([[1, -5], [0, 17], [2, 0]])
