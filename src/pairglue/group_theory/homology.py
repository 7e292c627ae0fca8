"""Exact integer matrices, Smith normal form and first homology.

All arithmetic is on Python integers, so entries may grow without bound
during elimination; nothing here ever rounds.
"""

from ..errors import DomainError
from .words import Word  # noqa: F401  (re-exported for convenience in doctests)


class IntegerMatrix:
    """An immutable rows-of-tuples integer matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        normalized = tuple(tuple(int(x) for x in row) for row in rows)
        widths = {len(row) for row in normalized}
        if len(widths) > 1:
            raise DomainError("ragged matrix rows")
        self.rows = normalized

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


class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` is the ascending divisibility chain (each factor at
    least 2, each dividing the next); ``rank`` the free rank.  The string form
    is the one used by the command line: factors joined by `` + `` and a
    trailing ``Z^rank`` when the free part is nonzero.

    >>> str(AbelianGroup(0, (3, 9, 18)))
    'Z3 + Z9 + Z18'
    >>> str(AbelianGroup(0, ()))
    '0'
    """

    __slots__ = ("rank", "invariant_factors")

    def __init__(self, rank, invariant_factors=()):
        factors = tuple(int(d) for d in invariant_factors)
        if rank < 0:
            raise DomainError("negative free rank")
        for d in factors:
            if d < 2:
                raise DomainError(f"invariant factor {d} must be at least 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise DomainError(f"invariant factors {a}, {b} break divisibility")
        self.rank = int(rank)
        self.invariant_factors = factors

    def order(self):
        """Group order, or None for infinite groups."""
        if self.rank:
            return None
        product = 1
        for d in self.invariant_factors:
            product *= d
        return product

    def __eq__(self, other):
        return (isinstance(other, AbelianGroup)
                and self.rank == other.rank
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash((self.rank, self.invariant_factors))

    def __str__(self):
        parts = [f"Z{d}" for d in self.invariant_factors]
        if self.rank:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianGroup(rank={self.rank}, invariant_factors={self.invariant_factors})"


def abelianization_matrix(presentation):
    """Relator-by-generator matrix of net exponent sums."""
    return IntegerMatrix(
        tuple(tuple(relator.exponent_sum(g) for g in presentation.generators)
              for relator in presentation.relators))


def smith_normal_form(matrix):
    """Diagonalize over the integers: returns (D, U, V) with U*matrix*V = D.

    U and V are unimodular, and the diagonal of D is nonnegative with each
    entry dividing the next.  Pivots are chosen as the smallest nonzero
    absolute value of the remaining submatrix, row-major on ties.
    """
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
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col i += q * col j
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
                # pivot divides everything in its row/column; check the rest
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


def h1(presentation):
    """First homology: cokernel of the transposed abelianization matrix.

    Invariant factors equal to 1 are dropped; the free rank is the generator
    count minus the matrix rank.

    >>> from .presentations import Presentation
    >>> str(h1(Presentation(["c"], [Word.parse("c c c")])))
    'Z3'
    """
    if not presentation.relators:
        return AbelianGroup(len(presentation.generators), ())
    matrix = abelianization_matrix(presentation).transpose()
    diagonal_matrix, _, _ = smith_normal_form(matrix)
    diagonal = [diagonal_matrix.rows[i][i]
                for i in range(min(matrix.num_rows, matrix.num_cols))]
    nonzero = [d for d in diagonal if d]
    factors = tuple(d for d in nonzero if d >= 2)
    rank = len(presentation.generators) - len(nonzero)
    return AbelianGroup(rank, factors)
