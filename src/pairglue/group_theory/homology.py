"""Exact integer matrices, Smith normal form and first homology.

All arithmetic is on Python integers, so entries may grow without bound
during elimination; nothing here ever rounds.
"""

from collections import namedtuple

from ..complex_core import _Immutable, _is_int
from ..errors import DomainError

__all__ = ["AbelianGroup", "IntegerMatrix", "abelianization_matrix", "h1",
           "smith_normal_form"]


def _integers(values, what):
    """``values`` as a tuple of ints; DomainError for any value that is not
    an int (a bool, float, string or Fraction is refused, never truncated);
    an int subclass other than bool is converted to int."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        for x in values:
            if not _is_int(x):
                raise DomainError(f"{what} {x!r} is not an integer")
        values = tuple(map(int, values))
    return values


class IntegerMatrix(_Immutable):
    """An immutable rows-of-tuples integer matrix.

    Every entry must be an int; anything else raises DomainError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        normalized = tuple(_integers(row, "matrix entry") for row in rows)
        widths = {len(row) for row in normalized}
        if len(widths) > 1:
            raise DomainError("ragged matrix rows")
        object.__setattr__(self, "rows", normalized)

    def __reduce__(self):
        return (IntegerMatrix, (self.rows,))

    @classmethod
    def identity(cls, k):
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

    Each relator is read once, letter by letter.
    """
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
    width = range(len(presentation.generators))
    return IntegerMatrix(tuple(tuple(row.get(k, 0) for k in width)
                               for row in _exponent_rows(presentation)))


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
    it does not depend on the route; :func:`h1` runs :func:`_diagonalize`
    alone.

    >>> m = IntegerMatrix([[2, 4], [6, 8]])
    >>> d, u, v = smith_normal_form(m)
    >>> d
    IntegerMatrix([[2, 0], [0, 4]])
    >>> u * m * v == d
    True
    """
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


def _diagonalize(a, num_cols, u=None, vt=None):
    """Reduce the rows ``a`` (lists, changed in place) to Smith normal form.

    Every step is also applied to ``u`` and ``vt``, the U and V transposed
    (lists of rows, changed in place) of the steps that made ``a``.  Without
    them both get rows of width zero, so every step applied to them is a
    no-op and the same steps reduce ``a`` alone: ``a`` ends up exactly as
    with the transforms, while no entry of U or V is ever computed.

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
    if u is None:
        u = [[] for _ in range(num_rows)]
        vt = [[] for _ in range(num_cols)]

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


def _eliminate_unit_pivots(rows, num_cols):
    """Eliminate ±1 entries of a sparse integer matrix; return (count, core).

    ``rows`` are ``{column: nonzero entry}`` dicts, which are consumed;
    empty ones are skipped.  Each step picks a ±1 entry of least Markowitz
    cost (row length - 1) * (column count - 1), clears its column with row
    operations and then drops its row and column: over the integers that
    splits off an invariant factor 1.  Costs are kept in a heap and
    refreshed when a popped entry's cost has grown, so no step rescans the
    matrix.  The core is the dense matrix of what is left: no entry in it is
    ±1, and its columns are the nonzero ones in index order.
    """
    import heapq  # here, not at the top: importing pairglue stays cheap

    live = {r: row for r, row in enumerate(rows) if row}
    cols = [set() for _ in range(num_cols)]
    for r, row in live.items():
        for c in row:
            cols[c].add(r)

    def cost(row, c):
        return (len(row) - 1) * (len(cols[c]) - 1)

    heap = [(cost(row, c), r, c) for r, row in live.items()
            for c, x in row.items() if x in (1, -1)]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        stored, r, c = heapq.heappop(heap)
        pivot_row = live.get(r)
        if pivot_row is None:
            continue
        s = pivot_row.get(c)
        if s not in (1, -1):
            continue
        now = cost(pivot_row, c)
        if now > stored:
            heapq.heappush(heap, (now, r, c))
            continue
        del live[r]
        for k in pivot_row:
            cols[k].discard(r)
        targets, cols[c] = cols[c], set()
        for i in targets:
            row = live[i]
            f = row[c] * s
            for k, x in pivot_row.items():
                y = row.get(k, 0) - f * x
                if y:
                    row[k] = y
                    cols[k].add(i)
                    if y in (1, -1):
                        heapq.heappush(heap, (cost(row, k), i, k))
                else:
                    del row[k]
                    cols[k].discard(i)
            if not row:
                del live[i]
        pivots += 1
    core_cols = sorted({c for row in live.values() for c in row})
    core = [[row.get(c, 0) for c in core_cols] for row in live.values()]
    return pivots, core


def h1(presentation):
    """First homology: the cokernel of the transposed abelianization matrix.

    H1 is Z^generators modulo the row space of the relator-by-generator
    matrix A, and only the invariant factors of A are needed.  A matrix and
    its transpose have the same Smith normal form diagonal, so A is reduced
    as it stands.  Its rows are built sparse, and ±1 entries are eliminated
    first in a sparsity-preserving order, each one an invariant factor 1.
    Only the small core that remains is diagonalized, by
    :func:`_diagonalize` alone: no triangular pass first, which made the
    cores of m25(100) and m25(200) slower, and no U or V, which nothing here
    reads and whose entries grow far larger than the core's.  Factors equal
    to 1 are dropped; the free rank is the generator count minus the rank of
    A (unit pivots plus nonzero core diagonal entries).

    >>> from . import Presentation, Word
    >>> str(h1(Presentation(["c"], [Word.parse("c c c")])))
    'Z3'
    """
    num_gens = len(presentation.generators)
    pivots, core = _eliminate_unit_pivots(_exponent_rows(presentation), num_gens)
    num_cols = len(core[0]) if core else 0
    _diagonalize(core, num_cols)
    nonzero = [core[i][i] for i in range(min(len(core), num_cols))
               if core[i][i]]
    factors = tuple(x for x in nonzero if x >= 2)
    return AbelianGroup(num_gens - pivots - len(nonzero), factors)
