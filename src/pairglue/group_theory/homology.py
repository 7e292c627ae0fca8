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
    as sequences, raises DomainError.  The column count is read off the
    rows; a matrix with no rows takes it from ``num_cols`` (0 when it is
    not given), so a 0x2 matrix is not a 0x3 one.  A ``num_cols`` that is
    not a non-negative int, or that the rows do not have, raises
    DomainError.
    """

    __slots__ = ("rows", "num_cols")

    def __init__(self, rows, num_cols=None):
        normalized = tuple(_integers(row, "matrix entry")
                           for row in _sequence(rows, "matrix"))
        widths = {len(row) for row in normalized}
        if len(widths) > 1:
            raise DomainError("ragged matrix rows")
        if num_cols is None:
            num_cols = widths.pop() if widths else 0
        elif not _is_int(num_cols) or num_cols < 0:
            raise DomainError(
                f"column count {num_cols!r} is not a non-negative integer")
        elif widths and widths != {num_cols}:
            raise DomainError(f"matrix rows do not have {num_cols} columns")
        object.__setattr__(self, "rows", normalized)
        object.__setattr__(self, "num_cols", int(num_cols))

    def __reduce__(self):
        return (IntegerMatrix, (self.rows, self.num_cols))

    @classmethod
    def identity(cls, k):
        if not _is_int(k) or k < 0:
            raise DomainError(f"identity size {k!r} is not a non-negative integer")
        return cls(tuple(tuple(1 if i == j else 0 for j in range(k))
                         for i in range(k)), k)

    @property
    def num_rows(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.num_cols == other.num_cols)

    def __hash__(self):
        return hash((self.rows, self.num_cols))

    def __repr__(self):
        if not self.rows:
            return f"IntegerMatrix([], num_cols={self.num_cols})"
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
                  for i in range(self.num_rows)), cols)

    def transpose(self):
        columns = tuple(zip(*self.rows)) if self.rows else ((),) * self.num_cols
        return IntegerMatrix(columns, self.num_rows)

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
    width = len(presentation.generators)
    return IntegerMatrix(tuple(tuple(row.get(k, 0) for k in range(width))
                               for row in rows), width)


def smith_normal_form(matrix):
    """Diagonalize over the integers: returns (D, U, V) with U*matrix*V = D.

    U and V are unimodular, and the diagonal of D is nonnegative with each
    entry dividing the next.  The matrix is reduced on sparse rows by the
    two passes of :func:`h1`, which here also record every row step in U
    and every column step in V: :func:`_eliminate_unit_pivots` splits off
    the ±1 entries, and :func:`_sparse_diagonal` splits what is left into
    1x1 blocks.  The blocks are moved onto the diagonal, units first, with
    their signs moved into U, and :func:`_divisibility_chain` makes the
    chain by unimodular 2x2 gcd/lcm steps.  D is unique, so it does not
    depend on the route.  On dense input the Bezout step of
    :func:`_sparse_diagonal` makes most pivots 1 (it is tried in columns of
    at least three rows, with a mate whose entry is prime to the pivot and
    whose support lies inside the pivot row's), and one exact sweep then
    clears the column.  On 20 seeded dense 20x20 matrices with entries in
    [-20, 20] that takes about 232 row steps per matrix, where rounded
    Euclid sweeps alone took 849.  U has entries of about 100 to 190 bits
    and V of about 900 to 925 (medians).  DomainError when ``matrix`` is
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
    num_rows, num_cols = matrix.num_rows, matrix.num_cols
    u = [[int(i == j) for j in range(num_rows)] for i in range(num_rows)]
    vt = [[int(i == j) for j in range(num_cols)] for i in range(num_cols)]
    rows = [{k: x for k, x in enumerate(row) if x} for row in matrix.rows]
    blocks, rows, cols = _eliminate_unit_pivots(rows, num_cols, u, vt)
    blocks += _sparse_diagonal(rows, cols, u, vt)
    # the blocks go first, in U by their rows and in V by their columns
    block_rows = [r for r, _, _ in blocks]
    block_cols = [c for _, c, _ in blocks]
    u = [u[r] for r in block_rows + sorted(set(range(num_rows)) - set(block_rows))]
    vt = [vt[c] for c in block_cols + sorted(set(range(num_cols)) - set(block_cols))]
    diagonal = []
    for i, (_, _, p) in enumerate(blocks):
        if p < 0:
            u[i] = [-x for x in u[i]]
        diagonal.append(abs(p))
    _divisibility_chain(diagonal, u, vt)
    d = [[0] * num_cols for _ in range(num_rows)]
    for i, x in enumerate(diagonal):
        d[i][i] = x
    return (IntegerMatrix(d, num_cols), IntegerMatrix(u, num_rows),
            IntegerMatrix(zip(*vt), num_cols))


def _subtract_row(rows, cols, i, f, pivot_row):
    """Row ``i`` of ``rows`` loses ``f`` times ``pivot_row``.

    ``rows`` maps row numbers to ``{column: nonzero entry}`` dicts and
    ``cols`` lists the set of row numbers of each column; both are kept in
    step, and a row left empty is dropped from ``rows``.
    """
    row = rows[i]
    for k, x in pivot_row.items():
        if k in row:
            y = row[k] - f * x
            if y:
                row[k] = y
            else:
                del row[k]
                cols[k].discard(i)
        else:
            row[k] = -f * x
            cols[k].add(i)
    if not row:
        del rows[i]


def _subtract_vector(vectors, i, f, j):
    """The list ``vectors[i]`` loses ``f`` times ``vectors[j]``: a row step
    on U, or a column step on V kept transposed."""
    vectors[i] = [x - f * y for x, y in zip(vectors[i], vectors[j])]


def _eliminate_unit_pivots(rows, num_cols, u=None, vt=None):
    """Eliminate ±1 entries of a sparse integer matrix.

    ``rows`` are ``{column: nonzero entry}`` dicts, which are consumed;
    empty ones are skipped.  One pass visits the columns in index order.
    In a column that holds a ±1 entry, the shortest row holding one (the
    lowest index on ties) clears the column with row operations, and then
    its row and column are dropped: over the integers that splits off an
    invariant factor 1.  A later step can make a ±1 entry in a column the
    pass has already visited; that entry stays for :func:`_sparse_diagonal`.

    ``u`` and ``vt``, when given, are U and V transposed as lists of rows,
    changed in place.  Each row step is applied to U.  Once a pivot is
    alone in its column, column steps clear the rest of its row in V; they
    touch no other row of the matrix, so the rows left are the same.
    Returns (blocks, rows, cols): the pivots as ``(row, column, ±1)``, the
    rows left as a ``{row number: row}`` dict, and each column's set of row
    numbers.
    """
    live = {r: row for r, row in enumerate(rows) if row}
    cols = [set() for _ in range(num_cols)]
    for r, row in live.items():
        for c in row:
            cols[c].add(r)
    blocks = []
    for c in range(num_cols):
        units = [(len(live[r]), r) for r in cols[c] if live[r][c] in (1, -1)]
        if not units:
            continue
        r = min(units)[1]
        pivot_row = live.pop(r)
        e = pivot_row[c]
        for k in pivot_row:
            cols[k].discard(r)
        targets, cols[c] = cols[c], set()
        for i in targets:
            f = live[i][c] * e
            _subtract_row(live, cols, i, f, pivot_row)
            if u is not None:
                _subtract_vector(u, i, f, r)
        if vt is not None:
            for k, x in pivot_row.items():
                if k != c:
                    _subtract_vector(vt, k, x * e, c)
        blocks.append((r, c, e))
    return blocks, live, cols


def _sparse_diagonal(rows, cols, u=None, vt=None):
    """Split the sparse rows into 1x1 blocks; return them as
    ``(row, column, pivot)``, the pivot signed.

    ``rows`` and ``cols`` are as :func:`_eliminate_unit_pivots` returns
    them, and are consumed; ``u`` and ``vt`` are as there, and take every
    row step and column step.  One pass visits the columns in index order
    and revisits each until it is empty.  In the pivot column the least
    absolute entry is the pivot (then the shortest row, then the lowest row
    number).  When the pivot is not ±1 and the column holds at least three
    rows, :func:`_bezout_pivot` first tries to make it 1 by one unimodular
    2x2 gcd step with a mate: another row of the column whose entry is
    prime to the pivot and whose support lies inside the pivot row's.  The
    support condition keeps the step from filling the rows; without it one
    h1 of m24(2000) took over 100 times as long.  Columns of two rows are
    left to the sweep.  After the step every quotient below is exact and
    one sweep clears the column.  Otherwise rounded-quotient row
    steps leave every other row of the column a remainder of at most half
    the pivot, and the least nonzero remainder becomes the next pivot.
    Once the column holds the pivot row alone, column steps reduce that
    row's other entries the same way; they touch no other row.  The least
    nonzero remainder there becomes the next pivot, and its column the
    pivot column.  A pivot alone in its row and its column is a block, and
    its row is dropped.  The columns before the one visited stay empty,
    and the matrix never goes dense: in m24's cyclic band with its dense
    row and column, no band row grows past six entries.
    """
    blocks = []
    for c in range(len(cols)):
        j = c
        while cols[j]:
            r = min(cols[j], key=lambda i: (abs(rows[i][j]), len(rows[i]), i))
            p = rows[r][j]
            if p not in (1, -1) and len(cols[j]) > 2:
                p = _bezout_pivot(rows, cols, r, j, u)
            pivot_row = rows[r]
            for i in cols[j] - {r}:
                # the quotient x/p rounded, so the remainder is at most p/2
                q = (2 * rows[i][j] + p) // (2 * p)
                _subtract_row(rows, cols, i, q, pivot_row)
                if u is not None:
                    _subtract_vector(u, i, q, r)
            if len(cols[j]) > 1:
                continue
            least = None
            for k, x in list(pivot_row.items()):
                if k != j:
                    q = (2 * x + p) // (2 * p)
                    if q and vt is not None:
                        _subtract_vector(vt, k, q, j)
                    x -= q * p
                    if x:
                        pivot_row[k] = x
                        if least is None or abs(x) < abs(pivot_row[least]):
                            least = k
                    else:
                        del pivot_row[k]
                        cols[k].discard(r)
            if least is None:
                blocks.append((r, j, p))
                del rows[r]
                cols[j].discard(r)
                j = c
            else:
                j = least
    return blocks


def _bezout_pivot(rows, cols, r, j, u):
    """Make the pivot of row ``r`` in column ``j`` a 1 by one Bezout step,
    if a mate allows it; return the pivot.

    The mate is another row of the column whose entry b is prime to the
    pivot p and whose support lies inside row ``r``'s, so the step fills no
    new column (the least |b|, then the shortest row, then the lowest row
    number).  With s*p + t*b = 1, rows ``r`` and mate take the unimodular
    gcd step of Kannan and Bachem, [[s, t], [-b, p]], which leaves 1 in row
    ``r`` and 0 in the mate; ``u``, when given, takes the same step.
    Without a mate p is returned and nothing changes.
    """
    pivot_row = rows[r]
    p = pivot_row[j]
    mates = [i for i in cols[j] if i != r and gcd(rows[i][j], p) == 1
             and rows[i].keys() <= pivot_row.keys()]
    if not mates:
        return p
    i = min(mates, key=lambda i: (abs(rows[i][j]), len(rows[i]), i))
    b = rows[i][j]
    _, s, t = _bezout(p, b)
    _mix_rows(rows, cols, r, i, s, t, -b, p)
    if u is not None:
        _mix(u, r, i, s, t, -b, p)
    return 1


def _mix_rows(rows, cols, i, j, a, b, c, d):
    """The sparse rows ``i`` and ``j`` (as in :func:`_subtract_row`) become
    a*ri + b*rj and c*ri + d*rj; ``cols`` is kept in step, and a row left
    empty is dropped from ``rows``."""
    ri, rj = rows[i], rows[j]
    for n, e, f in ((i, a, b), (j, c, d)):
        row = {}
        for k in ri.keys() | rj.keys():
            y = e * ri.get(k, 0) + f * rj.get(k, 0)
            if y:
                row[k] = y
                cols[k].add(n)
            else:
                cols[k].discard(n)
        if row:
            rows[n] = row
        else:
            del rows[n]


def _bezout(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for nonzero a and b."""
    g = gcd(a, b)
    s = pow(a // g, -1, abs(b // g))
    return g, s, (g - s * a) // b


def _mix(vectors, i, j, a, b, c, d):
    """The lists ``vectors[i]`` and ``vectors[j]`` become a*vi + b*vj and
    c*vi + d*vj."""
    pairs = list(zip(vectors[i], vectors[j]))
    vectors[i] = [a * x + b * y for x, y in pairs]
    vectors[j] = [c * x + d * y for x, y in pairs]


def _divisibility_chain(diagonal, u=None, vt=None):
    """Make the positive ``diagonal`` (changed in place) a divisibility
    chain by pairwise gcd and lcm steps, skipping a pair a, b when a | b.

    With ``u`` and ``vt`` (as in :func:`_eliminate_unit_pivots`, their
    first rows matching the diagonal), each step is unimodular: with
    g = s*a + t*b, rows i and j of U take [[s, t], [-b/g, a/g]], and
    columns i and j of V take [[1, -tb/g], [1, sa/g]], which turns
    diag(a, b) into diag(g, ab/g).
    """
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            if b % a:
                g, s, t = _bezout(a, b)
                diagonal[i], diagonal[j] = g, a // g * b
                if u is not None:
                    _mix(u, i, j, s, t, -(b // g), a // g)
                    _mix(vt, i, j, 1, 1, -(t * b // g), s * a // g)


def h1(presentation):
    """First homology: the cokernel of the transposed abelianization matrix.

    H1 is Z^generators modulo the row space of the relator-by-generator
    matrix A, and only the invariant factors of A are needed.  A matrix and
    its transpose have the same Smith normal form diagonal, so A is reduced
    as it stands, on sparse rows throughout, by the passes that
    :func:`smith_normal_form` runs, here without U or V.  The ±1 entries
    are eliminated first by :func:`_eliminate_unit_pivots`, each one an
    invariant factor 1; :func:`_sparse_diagonal` then splits what is left
    into 1x1 blocks.  :func:`_divisibility_chain` turns the blocks' other
    absolute values into the invariant factors, and factors equal to 1 are
    dropped.  The free rank is the generator count minus the rank of A:
    the number of blocks.

    >>> from . import Presentation, Word
    >>> str(h1(Presentation(["c"], [Word.parse("c c c")])))
    'Z3'
    """
    rows = _exponent_rows(presentation)
    num_gens = len(presentation.generators)
    units, rows, cols = _eliminate_unit_pivots(rows, num_gens)
    blocks = _sparse_diagonal(rows, cols)
    factors = [abs(p) for _, _, p in blocks if p not in (1, -1)]
    _divisibility_chain(factors)
    return AbelianGroup(num_gens - len(units) - len(blocks),
                        tuple(x for x in factors if x != 1))
