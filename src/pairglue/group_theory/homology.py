"""Exact integer matrices, Smith normal form and first homology.

All arithmetic is on Python integers, so entries may grow without bound
during elimination; nothing here ever rounds.
"""

from collections import namedtuple
from math import gcd

from ..complex_core import _Immutable, _is_int
from ..errors import DomainError
from .presentations import Presentation

__all__ = ["AbelianGroup", "IntegerMatrix", "abelianization_matrix", "h1",
           "smith_normal_form"]


def _sequence(values, what):
    """``values`` as a tuple; DomainError naming ``what`` when ``values``
    cannot be read as a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what} is not a sequence: {values!r}") from None


def _integers(values, what):
    """``values`` as a tuple of ints; DomainError for any value that is not
    an int (a bool, float, string or Fraction is refused, never truncated);
    an int subclass other than bool is converted to int.  DomainError too
    when ``values`` cannot be read as a sequence."""
    values = _sequence(values, f"{what} list")
    if not {int}.issuperset(map(type, values)):
        for x in values:
            if not _is_int(x):
                raise DomainError(f"{what} {x!r} is not an integer")
        values = tuple(map(int, values))
    return values


class IntegerMatrix(_Immutable):
    """An immutable rows-of-tuples integer matrix.

    Every entry must be an int; anything else, and rows that cannot be read
    as sequences, raises DomainError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        normalized = tuple(_integers(row, "matrix entry")
                           for row in _sequence(rows, "matrix"))
        widths = {len(row) for row in normalized}
        if len(widths) > 1:
            raise DomainError("ragged matrix rows")
        object.__setattr__(self, "rows", normalized)

    def __reduce__(self):
        return (IntegerMatrix, (self.rows,))

    @classmethod
    def identity(cls, k):
        if not _is_int(k) or k < 0:
            raise DomainError(f"identity size {k!r} is not a non-negative integer")
        return cls(tuple(tuple(1 if i == j else 0 for j in range(k))
                         for i in range(k)))

    @property
    def num_rows(self):
        return len(self.rows)

    @property
    def num_cols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, IntegerMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self.rows]!r})"

    def __mul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.num_cols != other.num_rows:
            raise DomainError("matrix shapes do not compose")
        cols = other.num_cols
        return IntegerMatrix(
            tuple(tuple(sum(self.rows[i][k] * other.rows[k][j]
                            for k in range(self.num_cols))
                        for j in range(cols))
                  for i in range(self.num_rows)))

    def transpose(self):
        return IntegerMatrix(tuple(zip(*self.rows))) if self.rows else IntegerMatrix(())

    def determinant(self):
        """Exact determinant (fraction-free Gaussian elimination)."""
        if self.num_rows != self.num_cols:
            raise DomainError("determinant of a non-square matrix")
        size = self.num_rows
        if size == 0:
            return 1
        work = [list(row) for row in self.rows]
        sign = 1
        previous = 1
        for k in range(size - 1):
            if work[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, size) if work[i][k]), None)
                if pivot_row is None:
                    return 0
                work[k], work[pivot_row] = work[pivot_row], work[k]
                sign = -sign
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    work[i][j] = (work[i][j] * work[k][k]
                                  - work[i][k] * work[k][j]) // previous
                work[i][k] = 0
            previous = work[k][k]
        return sign * work[size - 1][size - 1]


class AbelianGroup(namedtuple("AbelianGroup", "rank invariant_factors")):
    """A finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` is the ascending divisibility chain (each factor at
    least 2, each dividing the next); ``rank`` the free rank.  The string form
    is the one used by the command line: factors joined by `` + `` and a
    trailing ``Z^rank`` when the free part is nonzero.  The rank and the
    factors must be ints; anything else raises DomainError.

    >>> str(AbelianGroup(0, (3, 9, 18)))
    'Z3 + Z9 + Z18'
    >>> str(AbelianGroup(0, ()))
    '0'
    """

    __slots__ = ()

    def __new__(cls, rank, invariant_factors=()):
        (rank,) = _integers((rank,), "free rank")
        factors = _integers(invariant_factors, "invariant factor")
        if rank < 0:
            raise DomainError("negative free rank")
        for d in factors:
            if d < 2:
                raise DomainError(f"invariant factor {d} must be at least 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise DomainError(f"invariant factors {a}, {b} break divisibility")
        return super().__new__(cls, rank, factors)

    @classmethod
    def _make(cls, iterable):  # _replace calls it: run the checks there too
        return cls(*iterable)

    def order(self):
        """Group order, or None for infinite groups."""
        if self.rank:
            return None
        product = 1
        for d in self.invariant_factors:
            product *= d
        return product

    def __str__(self):
        parts = [f"Z{d}" for d in self.invariant_factors]
        if self.rank:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"


def _exponent_rows(presentation):
    """One ``{generator index: exponent sum}`` dict per relator, zeros dropped.

    Each relator is read once, letter by letter.  DomainError when
    ``presentation`` is not a Presentation.
    """
    if not isinstance(presentation, Presentation):
        raise DomainError(f"presentation is not a Presentation: {presentation!r}")
    index = {g: k for k, g in enumerate(presentation.generators)}
    rows = []
    for relator in presentation.relators:
        row = {}
        for name, sign in relator.letters:
            k = index[name]
            row[k] = row.get(k, 0) + sign
        rows.append({k: x for k, x in row.items() if x})
    return rows


def abelianization_matrix(presentation):
    """Relator-by-generator matrix of net exponent sums."""
    rows = _exponent_rows(presentation)
    width = range(len(presentation.generators))
    return IntegerMatrix(tuple(tuple(row.get(k, 0) for k in width)
                               for row in rows))


def smith_normal_form(matrix):
    """Diagonalize over the integers: returns (D, U, V) with U*matrix*V = D.

    U and V are unimodular, and the diagonal of D is nonnegative with each
    entry dividing the next.  It runs in two passes.
    :func:`_hermite_rows` first makes the matrix upper triangular with row
    operations alone, so V is still a permutation; :func:`_diagonalize`
    then reduces the triangular result, carrying on from the first pass's
    U and V.  Keeping the row and column Euclid steps apart until the
    second pass keeps U and V far smaller than interleaving them for every
    pivot would: on dense 20x20 matrices with entries in [-20, 20] they stay
    under about 500 and 710 bits, against 1,400 and 1,200.  D is unique, so
    it does not depend on the route; :func:`h1` reaches its invariant
    factors on sparse rows, with no U or V.  DomainError when ``matrix`` is
    not an IntegerMatrix.

    >>> m = IntegerMatrix([[2, 4], [6, 8]])
    >>> d, u, v = smith_normal_form(m)
    >>> d
    IntegerMatrix([[2, 0], [0, 4]])
    >>> u * m * v == d
    True
    """
    if not isinstance(matrix, IntegerMatrix):
        raise DomainError(f"matrix is not an IntegerMatrix: {matrix!r}")
    a = [list(row) for row in matrix.rows]
    u, vt = _hermite_rows(a, matrix.num_cols)
    _diagonalize(a, matrix.num_cols, u, vt)
    return (IntegerMatrix(a), IntegerMatrix(u), IntegerMatrix(zip(*vt)))


def _identity_rows(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _least_entry(a, t, num_cols):
    """(row, column) of the least nonzero absolute value in ``a`` from row
    and column ``t`` on, row-major on ties, or None when that part is zero."""
    best = None
    least = 0
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, num_cols):
            x = row[j]
            if x and (best is None or abs(x) < least):
                best = (i, j)
                least = abs(x)
                if least == 1:
                    return best
    return best


def _hermite_rows(a, num_cols):
    """Make the rows ``a`` (lists, changed in place) upper triangular.

    Returns (U, V transposed) as lists of rows, with U*A*V the new ``a``.
    Each step takes the pivot :func:`_diagonalize` would take, the least
    nonzero absolute value from row and column t on, and swaps its column
    into place: V is a permutation.  From then on only rows change.  Each
    row below the pivot p loses the nearest multiple of the pivot row,
    leaving a remainder in (-p/2, p/2], and the least remainder becomes the
    next pivot, until column t is zero below row t.  Nothing above a pivot
    is reduced.  Rows past the rank end up zero.
    """
    num_rows = len(a)
    u = _identity_rows(num_rows)
    vt = _identity_rows(num_cols)
    for t in range(min(num_rows, num_cols)):
        pivot = _least_entry(a, t, num_cols)
        if pivot is None:
            break
        i, j = pivot
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        while i is not None:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            p = a[t][t]
            tail, source = a[t][t:], u[t]
            i = None
            least = 0
            for r in range(t + 1, num_rows):
                x = a[r][t]
                if x:
                    q = (p - 2 * x) // (2 * p)  # minus x/p, rounded half down
                    a[r][t:] = [y + q * z for y, z in zip(a[r][t:], tail)]
                    u[r] = [y + q * z for y, z in zip(u[r], source)]
                    x = a[r][t]
                    if x and (i is None or abs(x) < least):
                        i = r
                        least = abs(x)
    return u, vt


def _diagonalize(a, num_cols, u, vt):
    """Reduce the rows ``a`` (lists, changed in place) to Smith normal form.

    Every step is also applied to ``u`` and ``vt``, the U and V transposed
    (lists of rows, changed in place) of the steps that made ``a``.

    Each pivot is the least nonzero absolute value of the remaining
    submatrix, row-major on ties, swapped into place; the row and column
    Euclid steps then alternate until the pivot divides its row, its column
    and the rest of the submatrix.  V is built transposed, so its column
    operations are row operations.  The column operations on the working
    matrix all add multiples of the pivot column, so they are applied as one
    row update per row that has a nonzero entry in that column.  Rows and
    columns before the pivot are already diagonal, so the working matrix is
    only updated from the pivot on.
    """
    num_rows = len(a)

    def add_row(i, j, q, t):
        # row i += q * row j; both rows are zero before column t
        a[i][t:] = [x + q * y for x, y in zip(a[i][t:], a[j][t:])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    t = 0
    while t < min(num_rows, num_cols):
        pivot = _least_entry(a, t, num_cols)
        if pivot is None:
            break
        while True:
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                vt[t], vt[j] = vt[j], vt[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, num_rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p), t)
                    if a[i][t]:
                        dirty = True
            # col t + 1 + k += q[k] * col t for every k, one update per row
            q = [-(x // p) for x in a[t][t + 1:]]
            if any(q):
                for i in range(t, num_rows):
                    x = a[i][t]
                    if x:
                        a[i][t + 1:] = [y + x * c for y, c in zip(a[i][t + 1:], q)]
                source = vt[t]
                for j, c in enumerate(q, t + 1):
                    if c:
                        vt[j] = [y + c * x for y, x in zip(vt[j], source)]
            if any(a[t][t + 1:]):
                dirty = True
            if not dirty:
                # pivot divides everything in its row/column; check the rest
                offender = None
                if p != 1:
                    for i in range(t + 1, num_rows):
                        if any(x % p for x in a[i][t + 1:]):
                            offender = i
                            break
                if offender is None:
                    break
                add_row(t, offender, 1, t)
            pivot = _least_entry(a, t, num_cols)
        t += 1


def _subtract_row(rows, cols, i, f, pivot_row):
    """Row ``i`` of ``rows`` loses ``f`` times ``pivot_row``.

    ``rows`` maps row numbers to ``{column: nonzero entry}`` dicts and
    ``cols`` lists the set of row numbers of each column; both are kept in
    step, and a row left empty is dropped from ``rows``.
    """
    row = rows[i]
    for k, x in pivot_row.items():
        y = row.get(k, 0) - f * x
        if y:
            row[k] = y
            cols[k].add(i)
        else:
            del row[k]
            cols[k].discard(i)
    if not row:
        del rows[i]


def _eliminate_unit_pivots(rows, num_cols):
    """Eliminate ±1 entries of a sparse integer matrix.

    ``rows`` are ``{column: nonzero entry}`` dicts, which are consumed;
    empty ones are skipped.  One pass visits the columns in index order.
    In a column that holds a ±1 entry, the shortest row holding one (the
    lowest index on ties) clears the column with row operations, and then
    its row and column are dropped: over the integers that splits off an
    invariant factor 1.  A later step can make a ±1 entry in a column the
    pass has already visited; that entry stays for :func:`_sparse_diagonal`.
    Returns (count, rows, cols): the number of pivots, the rows left as a
    ``{row number: row}`` dict, and each column's set of row numbers.
    """
    live = {r: row for r, row in enumerate(rows) if row}
    cols = [set() for _ in range(num_cols)]
    for r, row in live.items():
        for c in row:
            cols[c].add(r)
    pivots = 0
    for c in range(num_cols):
        units = [(len(live[r]), r) for r in cols[c] if live[r][c] in (1, -1)]
        if not units:
            continue
        r = min(units)[1]
        pivot_row = live.pop(r)
        for k in pivot_row:
            cols[k].discard(r)
        targets, cols[c] = cols[c], set()
        for i in targets:
            _subtract_row(live, cols, i, live[i][c] * pivot_row[c], pivot_row)
        pivots += 1
    return pivots, live, cols


def _sparse_diagonal(rows, cols):
    """Split the sparse rows into 1x1 blocks; return their entries, each >= 1.

    ``rows`` and ``cols`` are as :func:`_eliminate_unit_pivots` returns
    them, and are consumed.  One pass visits the columns in index order and
    revisits each until it is empty.  In the pivot column the least
    absolute entry is the pivot (then the shortest row, then the lowest row
    number).  Rounded-quotient row steps leave every other row of the
    column a remainder of at most half the pivot, and the least nonzero
    remainder becomes the next pivot.  Once the column holds the pivot row
    alone, column steps reduce that row's other entries the same way; they
    touch no other row.  The least nonzero remainder there becomes the next
    pivot, and its column the pivot column.  A pivot alone in its row and
    its column is a block: its absolute value is recorded, and its row
    dropped.  The columns before the one visited stay empty, and the
    matrix never goes dense: in m24's cyclic band with its dense row and
    column, no band row grows past six entries.
    """
    diagonal = []
    for c in range(len(cols)):
        j = c
        while cols[j]:
            r = min(cols[j], key=lambda i: (abs(rows[i][j]), len(rows[i]), i))
            pivot_row = rows[r]
            p = pivot_row[j]
            for i in cols[j] - {r}:
                # the quotient x/p rounded, so the remainder is at most p/2
                _subtract_row(rows, cols, i, (2 * rows[i][j] + p) // (2 * p),
                              pivot_row)
            if len(cols[j]) > 1:
                continue
            least = None
            for k, x in list(pivot_row.items()):
                if k != j:
                    x -= (2 * x + p) // (2 * p) * p
                    if x:
                        pivot_row[k] = x
                        if least is None or abs(x) < abs(pivot_row[least]):
                            least = k
                    else:
                        del pivot_row[k]
                        cols[k].discard(r)
            if least is None:
                diagonal.append(abs(p))
                del rows[r]
                cols[j].discard(r)
                j = c
            else:
                j = least
    return diagonal


def h1(presentation):
    """First homology: the cokernel of the transposed abelianization matrix.

    H1 is Z^generators modulo the row space of the relator-by-generator
    matrix A, and only the invariant factors of A are needed.  A matrix and
    its transpose have the same Smith normal form diagonal, so A is reduced
    as it stands, on sparse rows throughout and without U or V.  The ±1
    entries are eliminated first by :func:`_eliminate_unit_pivots`, each
    one an invariant factor 1; :func:`_sparse_diagonal` then splits what is
    left into a diagonal.  Pairwise gcd and lcm steps turn the diagonal into
    the divisibility chain, and factors equal to 1 are dropped.  The free
    rank is the generator count minus the rank of A: the unit pivots plus
    the diagonal's length.

    >>> from . import Presentation, Word
    >>> str(h1(Presentation(["c"], [Word.parse("c c c")])))
    'Z3'
    """
    rows = _exponent_rows(presentation)
    num_gens = len(presentation.generators)
    pivots, rows, cols = _eliminate_unit_pivots(rows, num_gens)
    diagonal = _sparse_diagonal(rows, cols)
    factors = [x for x in diagonal if x != 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] // g * factors[j]
    return AbelianGroup(num_gens - pivots - len(diagonal),
                        tuple(x for x in factors if x != 1))
