"""Counting homomorphisms from a presented group into small finite groups.

A finite group is passed around as a plain multiplication table: a square
tuple of tuples of element indices with the identity at index 0, so
``table[i][j]`` is the product of elements ``i`` and ``j``.  A count has
three parts, each prepared as rarely as it can be:

* per target, once per process: the table is validated, its power cycles
  are read off and it is checked for commutativity; for a nonabelian table
  the search also needs its full automorphism group (computed from the
  table by trying generator images of matching orders, on first use) and a
  stabiliser chain, filled on demand.  The 64 most recently used distinct
  tables are kept;
* per presentation, once: the presentation keeps its first homology for
  abelian targets, and its :func:`auto_simplify` result for nonabelian
  ones; that result keeps its relators compiled to runs ``(generator,
  exponent)``, each relator checked at the depth of its last generator;
* per count: the closed form below for an abelian target, and for a
  nonabelian one the power of every candidate image for every run, and the
  search.

A homomorphism into an abelian group A factors through the abelianization,
so with H1 = Z^r + Z_{d_1} + ... + Z_{d_k} of the given presentation the
count is |A|^r times the product over i of the number of elements whose
order divides d_i.  This needs no simplification and no search, and holds
at any size.

Only nonabelian targets are searched.  The search enumerates generator
images depth first and evaluates a relator with one table lookup per run as
soon as all its generators have images, rejecting the branch when the value
is not the identity.  Images are enumerated only up to the automorphism
group of the target: each depth tries one image per orbit of the
automorphisms that fix the images already chosen, weighted by the orbit's
size.  It raises CapacityError when more than six generators survive
simplification, or when simplification outgrows its bound.
"""

from functools import lru_cache
from itertools import permutations, product

from ..errors import CapacityError, DomainError
from .homology import h1
from .presentations import auto_simplify

__all__ = ["count_homomorphisms", "small_groups", "validate_table"]

MAX_SEARCH_GENERATORS = 6


def validate_table(table):
    """Check a multiplication table is a group table; raises DomainError.

    Verifies squareness, that every entry is an int in range (a bool is
    refused), identity at index 0, two-sided inverses, and associativity
    by Light's test: the elements s with (x s) y = x (s y) for all x, y are
    closed under the product, so it suffices to check the generators of
    :func:`_generating_tree`, whose tree writes every element as a product
    of them.  For a group each generator at least doubles the subgroup
    spanned so far, so the test costs O(order^2 log order), not
    O(order^3).
    """
    order = len(table)
    if order == 0:
        raise DomainError("empty multiplication table")
    for i, row in enumerate(table):
        if len(row) != order:
            raise DomainError(f"row {i} has length {len(row)}, expected {order}")
        for j, entry in enumerate(row):
            if type(entry) is not int or not 0 <= entry < order:
                raise DomainError(f"entry at ({i}, {j}) is not an element index")
    for i in range(order):
        if table[0][i] != i or table[i][0] != i:
            raise DomainError("element 0 is not a two-sided identity")
    for i in range(order):
        if not any(table[i][j] == 0 and table[j][i] == 0 for j in range(order)):
            raise DomainError(f"element {i} has no two-sided inverse")
    for s in _generating_tree(table)[0]:
        for x in range(order):
            xs = table[x][s]
            for y in range(order):
                if table[xs][y] != table[x][table[s][y]]:
                    raise DomainError(
                        f"associativity fails at ({x}, {s}, {y})")


def _generating_tree(table):
    """``(generators, tree)``: a generating set grown greedily in element
    order (an element joins when the elements spanned so far miss it), and
    ``{element: (parent, generator position)}`` with element = parent *
    generators[position], breadth first from the identity ``(None, None)``."""
    generators = []
    tree = {0: (None, None)}
    for x in range(len(table)):
        if x not in tree:
            generators.append(x)
            tree = {0: (None, None)}
            frontier = [0]
            for element in frontier:
                for k, g in enumerate(generators):
                    child = table[element][g]
                    if child not in tree:
                        tree[child] = (element, k)
                        frontier.append(child)
    return generators, tree


def _power_cycles(table):
    """For each element x, the list [e, x, x^2, ...] of its distinct powers.

    The k-th power of x, for any integer k, is ``cycle[k % len(cycle)]``.
    """
    cycles = []
    for x in range(len(table)):
        cycle = [0]
        value = x
        while value != 0:
            cycle.append(value)
            value = table[value][x]
        cycles.append(cycle)
    return cycles


def _runs(relator, index_of):
    """The relator as runs ``(generator index, exponent)``, empty runs dropped."""
    runs = []
    for name, sign in relator:
        gen_index = index_of[name]
        if runs and runs[-1][0] == gen_index:
            runs[-1][1] += sign
        else:
            runs.append([gen_index, sign])
    return [(gen_index, exponent) for gen_index, exponent in runs if exponent]


def _automorphisms(table, cycles):
    """Every automorphism of the table group, as permutation tuples of
    ``range(order)``, computed from the table alone.

    Every element is written as ``parent * generator`` along the tree of
    :func:`_generating_tree`.  An automorphism sends each generator to an
    element of the same order, so every such choice of generator images is
    tried: it is extended along the tree and kept when the extension is a
    bijection with phi(x g) = phi(x) phi(g) for every element x and
    generator g, which by induction along words in the generators makes it
    multiplicative.
    """
    order = len(table)
    generators, tree = _generating_tree(table)
    maps = []
    for images in product(*([y for y in range(order)
                             if len(cycles[y]) == len(cycles[g])]
                            for g in generators)):
        phi = [0] * order
        for element, (parent, k) in tree.items():
            if parent is not None:
                phi[element] = table[phi[parent]][images[k]]
        if len(set(phi)) == order and all(
                phi[table[x][g]] == table[phi[x]][image]
                for g, image in zip(generators, images)
                for x in range(order)):
            maps.append(tuple(phi))
    return sorted(maps)


class _Target:
    """A validated target group with the data every count into it reads.

    Built once per distinct table by ``_target``, which keeps the 64 most
    recently used; a table that fails validation raises and is never kept.
    It holds the table (a tuple of tuples) and its order,
    :func:`_power_cycles`, and whether the table is commutative.  Only the
    search reads the rest, so it is computed on the search's first call:
    Aut(T) from :func:`_automorphisms` and a stabiliser chain filled on
    demand.  A stabiliser is keyed by itself, as the ascending tuple of its
    maps' positions in Aut(T); the search starts from all of them.  The
    chain maps a stabiliser to ``[(orbit representative, orbit size, key of
    the representative's stabiliser within it)]``, one entry per orbit.
    """

    __slots__ = ("table", "order", "cycles", "abelian", "automorphisms",
                 "chain")

    def __init__(self, table):
        validate_table(table)
        self.table = table
        self.order = len(table)
        self.cycles = _power_cycles(table)
        self.abelian = table == tuple(zip(*table))
        self.automorphisms = None

    def prepare_search(self):
        """Compute Aut(T) and an empty chain, once."""
        if self.automorphisms is None:
            self.automorphisms = _automorphisms(self.table, self.cycles)
            self.chain = {}

    def orbits(self, stabiliser):
        """The chain entry of ``stabiliser``, computed on first use."""
        entries = self.chain.get(stabiliser)
        if entries is None:
            maps = self.automorphisms
            entries = []
            seen = set()
            for x in range(self.order):
                if x not in seen:
                    orbit = {maps[i][x] for i in stabiliser}
                    seen |= orbit
                    entries.append((x, len(orbit), tuple(
                        i for i in stabiliser if maps[i][x] == x)))
            self.chain[stabiliser] = entries
        return entries


_target = lru_cache(maxsize=64)(_Target)


def _compile(presentation):
    """The relators of a presentation, compiled for the search.

    Returns ``(runs, slots_by_depth, checks_by_depth)``.  Every distinct
    run ``(generator index, exponent)`` gets an integer slot, its position
    in ``runs``, which holds the image's power under the current
    assignment.  ``slots_by_depth[d]`` lists the slots of generator d, and
    ``checks_by_depth[d]`` the relators, as tuples of slots, whose last
    generator is d, shortest first, since a short relator rejects a branch
    sooner.  Relators that cancel hold vacuously and are dropped.
    """
    index_of = {g: i for i, g in enumerate(presentation.generators)}
    slot_of = {}
    slots_by_depth = [[] for _ in presentation.generators]
    checks_by_depth = [[] for _ in presentation.generators]
    for relator in presentation.relators:
        runs = _runs(relator, index_of)
        if not runs:
            continue
        for run in runs:
            if run not in slot_of:
                slots_by_depth[run[0]].append(len(slot_of))
                slot_of[run] = len(slot_of)
        depth = max(gen_index for gen_index, _ in runs)
        checks_by_depth[depth].append(tuple(slot_of[run] for run in runs))
    for checks in checks_by_depth:
        checks.sort(key=len)
    return (tuple(slot_of), tuple(map(tuple, slots_by_depth)),
            tuple(map(tuple, checks_by_depth)))


def count_homomorphisms(presentation, table):
    """Number of homomorphisms from the presented group into the table group.

    The table, any square array of element indices, is validated and
    prepared once per distinct value (``_target``), so a table changed
    between calls is validated again.  How the count is made depends on
    whether the table is commutative:

    * An abelian target is counted through H1 of the given presentation,
      which the presentation computes on first use and keeps
      (:func:`_abelian_count`).  There is no simplification, no search and
      no cap on the number of generators, so this works at any n.
    * A nonabelian target is counted by the search of :func:`_search` on
      ``auto_simplify(presentation)``, which raises CapacityError past its
      bound on relator letters (raw m25 from n = 15 on); so does the search
      when more than six generators survive.

    >>> from .. import Presentation, Word, build_m24, presentation_from_pairings
    >>> z3 = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    >>> count_homomorphisms(Presentation(["a"], [Word.parse("a a a")]), z3)
    3
    >>> z12 = small_groups()["Z12"]
    >>> count_homomorphisms(presentation_from_pairings(build_m24(11)), z12)
    3
    """
    rows = tuple(map(tuple, table))
    if not all({int}.issuperset(map(type, row)) for row in rows):
        # a float, bool or string equal to an index must not match a kept
        # table
        validate_table(rows)
    target = _target(rows)
    if target.abelian:
        return _abelian_count(presentation, target)
    return _search(presentation, target)


def _abelian_count(presentation, target):
    """The count into an abelian target, from H1 of the presentation.

    Every homomorphism into an abelian group A factors through the
    abelianization, so with H1 = Z^r + Z_{d_1} + ... + Z_{d_k} the count is
    |A|^r times, for each d_i, the number of elements of A whose order
    (the length of its power cycle) divides d_i.
    """
    group = presentation._h1
    if group is None:
        group = h1(presentation)
        object.__setattr__(presentation, "_h1", group)
    count = target.order ** group.rank
    for d in group.invariant_factors:
        count *= sum(1 for cycle in target.cycles if d % len(cycle) == 0)
    return count


def _search(presentation, target):
    """The count by depth-first search on ``auto_simplify(presentation)``.

    Any target can be searched, but :func:`count_homomorphisms` searches
    only nonabelian ones.  The search chooses each generator's image only
    up to the group A of all automorphisms of the target
    (:func:`_automorphisms`).  This is exact for any group of automorphisms:
    post-composing with any alpha in A is a bijection of Hom(G, target),
    and one that fixes the images already chosen maps each relator's value
    v to alpha(v), which is the identity exactly when v is.  So the number
    of homomorphisms extending a partial assignment, and every check along
    the way, is the same for all images in one orbit of the stabiliser of
    that assignment.  Each depth therefore tries one image per orbit,
    weights its count by the orbit's size and recurses with the stabiliser
    of that image too, read from the target's stabiliser chain; once only
    the identity map is left every element is its own orbit, of weight 1.
    """
    reduced = auto_simplify(presentation)
    generators = reduced.generators
    if len(generators) > MAX_SEARCH_GENERATORS:
        raise CapacityError(
            f"{len(generators)} generators remain after reduction; "
            f"the search handles at most {MAX_SEARCH_GENERATORS}")
    compiled = reduced._compiled
    if compiled is None:
        compiled = _compile(reduced)
        object.__setattr__(reduced, "_compiled", compiled)
    runs, slots_by_depth, checks_by_depth = compiled
    target.prepare_search()

    # ``powers[slot][x]`` is the power of image x that the slot's run takes
    table = target.table
    powers = [tuple(cycle[exponent % len(cycle)] for cycle in target.cycles)
              for _, exponent in runs]
    current = [0] * len(runs)
    orbits = target.orbits

    def search(depth, stabiliser):
        if depth == len(generators):
            return 1
        slots = slots_by_depth[depth]
        checks = checks_by_depth[depth]
        total = 0
        for candidate, weight, stabilised in orbits(stabiliser):
            for slot in slots:
                current[slot] = powers[slot][candidate]
            for relator in checks:
                value = 0
                for slot in relator:
                    value = table[value][current[slot]]
                if value:
                    break
            else:
                total += weight * search(depth + 1, stabilised)
        return total

    return search(0, tuple(range(len(target.automorphisms))))


def _table(elements, multiply):
    """The multiplication table of ``elements``, identity first, under
    ``multiply``, with each product given as its index in ``elements``."""
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[multiply(a, b)] for b in elements)
                 for a in elements)


def _cyclic(m):
    return _table(range(m), lambda i, j: (i + j) % m)


def _direct_product(left, right):
    return _table(product(range(len(left)), range(len(right))),
                  lambda a, b: (left[a[0]][b[0]], right[a[1]][b[1]]))


def _dihedral(m):
    # (i, j) is rotation i followed by j reflections:
    # (i, j) * (k, l) = (i + (-1)^j k, j + l)
    return _table(product(range(m), range(2)),
                  lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % m,
                                (a[1] + b[1]) % 2))


def _alternating4():
    return _table(
        sorted(p for p in permutations(range(4))
               if sum(p[i] > p[j] for i in range(4)
                      for j in range(i + 1, 4)) % 2 == 0),
        lambda p, q: tuple(p[x] for x in q))


def _dicyclic(m):
    # order 4m, Dic_2 = Q8: (i, j) is a^i x^j with a^(2m) = 1, x^2 = a^m and
    # x a = a^-1 x, so (i, 0)(k, l) = (i + k, l); (i, 1)(k, 0) = (i - k, 1);
    # (i, 1)(k, 1) = (i - k + m, 0), all mod 2m
    def multiply(a, b):
        (i, j), (k, l) = a, b
        if j == 0:
            return ((i + k) % (2 * m), l)
        if l == 0:
            return ((i - k) % (2 * m), 1)
        return ((i - k + m) % (2 * m), 0)

    return _table(product(range(2 * m), range(2)), multiply)


def small_groups():
    """All groups of order at most twelve, keyed by conventional name.

    The tables are built and validated once per process, on the first call,
    so a typo in a construction fails loudly here rather than corrupting a
    count.  Each call returns a new dict of the same immutable tables.
    """
    return dict(_small_group_tables())


@lru_cache(maxsize=None)
def _small_group_tables():
    catalog = {
        "Z1": _cyclic(1),
        "Z2": _cyclic(2),
        "Z3": _cyclic(3),
        "Z4": _cyclic(4),
        "Z2xZ2": _direct_product(_cyclic(2), _cyclic(2)),
        "Z5": _cyclic(5),
        "Z6": _cyclic(6),
        "D3": _dihedral(3),
        "Z7": _cyclic(7),
        "Z8": _cyclic(8),
        "Z4xZ2": _direct_product(_cyclic(4), _cyclic(2)),
        "Z2xZ2xZ2": _direct_product(_direct_product(_cyclic(2), _cyclic(2)),
                                    _cyclic(2)),
        "D4": _dihedral(4),
        "Q8": _dicyclic(2),
        "Z9": _cyclic(9),
        "Z3xZ3": _direct_product(_cyclic(3), _cyclic(3)),
        "Z10": _cyclic(10),
        "D5": _dihedral(5),
        "Z11": _cyclic(11),
        "Z12": _cyclic(12),
        "Z6xZ2": _direct_product(_cyclic(6), _cyclic(2)),
        "D6": _dihedral(6),
        "A4": _alternating4(),
        "Dic3": _dicyclic(3),
    }
    for table in catalog.values():
        validate_table(table)
    return catalog
