"""Counting homomorphisms from a presented group into small finite groups.

A finite group is passed around as a plain multiplication table: a square
tuple of tuples of element indices with the identity at index 0, so
``table[i][j]`` is the product of elements ``i`` and ``j``.  The counter
works on the presentation's :func:`auto_simplify` result, which the
presentation computes once and keeps, so counting one presentation into many
tables simplifies it once.  Each relator is compiled to runs ``(generator,
exponent)``, and the search precomputes, per run, the power of every
candidate image.  It enumerates generator images depth first and evaluates a
relator with one table lookup per run as soon as all its generators have
images, rejecting the branch when the value is not the identity.  Images
are enumerated only up to the full automorphism group of the target,
computed from its table by trying generator images of matching orders:
each depth tries one image per orbit of the automorphisms that fix the
images already chosen, weighted by the orbit's size.
"""

from itertools import permutations, product

from ..errors import CapacityError, DomainError
from .presentations import auto_simplify

MAX_SEARCH_GENERATORS = 6


def validate_table(table):
    """Check a multiplication table is a group table; raises DomainError.

    Verifies squareness, entry range, identity at index 0, two-sided
    inverses, and associativity by Light's test: the elements s with
    (x s) y = x (s y) for all x, y are closed under the product, so it
    suffices to check the generators of :func:`_generating_tree`, whose
    tree writes every element as a product of them.  For a group each
    generator at least doubles the subgroup spanned so far, so the test
    costs O(order^2 log order), not O(order^3).
    """
    order = len(table)
    if order == 0:
        raise DomainError("empty multiplication table")
    for i, row in enumerate(table):
        if len(row) != order:
            raise DomainError(f"row {i} has length {len(row)}, expected {order}")
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or not 0 <= entry < order:
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


def _orbit_representatives(maps, order):
    """``(least element, orbit size)`` for each orbit of the permutation
    group ``maps`` on ``range(order)``."""
    representatives = []
    seen = set()
    for x in range(order):
        if x not in seen:
            orbit = {m[x] for m in maps}
            seen |= orbit
            representatives.append((x, len(orbit)))
    return representatives


def count_homomorphisms(presentation, table):
    """Number of homomorphisms from the presented group into the table group.

    The count runs on ``auto_simplify(presentation)``, which the presentation
    computes on first use and keeps; if more than six generators survive, a
    CapacityError is raised rather than attempting a hopeless search.

    The search chooses each generator's image only up to the group A of
    all automorphisms of the target (:func:`_automorphisms`).  This is
    exact for any group of automorphisms:
    post-composing with any alpha in A is a bijection of Hom(G, target),
    and one that fixes the images already chosen maps each relator's value
    v to alpha(v), which is the identity exactly when v is.  So the number
    of homomorphisms extending a partial assignment, and every check along
    the way, is the same for all images in one orbit of the stabiliser of
    that assignment.  Each depth therefore tries one image per orbit,
    weights its count by the orbit's size and recurses with the maps that
    fix that image; once only the identity map is left it tries every
    element with weight 1.

    >>> from .presentations import Presentation
    >>> from .words import Word
    >>> z3 = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    >>> count_homomorphisms(Presentation(["a"], [Word.parse("a a a")]), z3)
    3
    """
    validate_table(table)
    reduced = auto_simplify(presentation)
    generators = reduced.generators
    if len(generators) > MAX_SEARCH_GENERATORS:
        raise CapacityError(
            f"{len(generators)} generators remain after reduction; "
            f"the search handles at most {MAX_SEARCH_GENERATORS}")

    order = len(table)
    cycles = _power_cycles(table)
    index_of = {g: i for i, g in enumerate(generators)}

    # Every distinct (generator, exponent) run gets an integer slot holding
    # the image's power under the current assignment; ``powers[slot][x]`` is
    # that power for image x.  A relator, as a tuple of slots, is checked at
    # the depth of its last generator.  Relators that cancel hold vacuously.
    slot_of = {}
    powers = []
    slots_by_depth = [[] for _ in generators]
    checks_by_depth = [[] for _ in generators]
    for relator in reduced.relators:
        runs = _runs(relator, index_of)
        if not runs:
            continue
        for run in runs:
            if run not in slot_of:
                gen_index, exponent = run
                slot_of[run] = len(powers)
                slots_by_depth[gen_index].append(len(powers))
                powers.append(tuple(cycle[exponent % len(cycle)]
                                    for cycle in cycles))
        depth = max(gen_index for gen_index, _ in runs)
        checks_by_depth[depth].append(tuple(slot_of[run] for run in runs))
    for checks in checks_by_depth:
        checks.sort(key=len)  # short relators reject a branch sooner

    current = [0] * len(powers)
    plain = [(candidate, 1) for candidate in range(order)]  # identity only

    def search(depth, maps):
        if depth == len(generators):
            return 1
        slots = slots_by_depth[depth]
        checks = checks_by_depth[depth]
        total = 0
        for candidate, weight in (plain if len(maps) == 1 else
                                  _orbit_representatives(maps, order)):
            for slot in slots:
                current[slot] = powers[slot][candidate]
            for relator in checks:
                value = 0
                for slot in relator:
                    value = table[value][current[slot]]
                if value:
                    break
            else:
                total += weight * search(depth + 1, [
                    m for m in maps if m[candidate] == candidate])
        return total

    return search(0, _automorphisms(table, cycles))


def _cyclic(m):
    return tuple(tuple((i + j) % m for j in range(m)) for i in range(m))


def _direct_product(left, right):
    elements = tuple(product(range(len(left)), range(len(right))))
    index = {e: i for i, e in enumerate(elements)}
    return tuple(
        tuple(index[(left[a][c], right[b][d])] for (c, d) in elements)
        for (a, b) in elements)


def _dihedral(m):
    # (i, j) is rotation i followed by j reflections:
    # (i, j) * (k, l) = (i + (-1)^j k, j + l)
    elements = tuple(product(range(m), range(2)))
    index = {e: i for i, e in enumerate(elements)}
    return tuple(
        tuple(index[((i + (k if j == 0 else -k)) % m, (j + l) % 2)]
              for (k, l) in elements)
        for (i, j) in elements)


def _alternating4():
    elements = tuple(sorted(
        p for p in permutations(range(4))
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0))
    index = {e: i for i, e in enumerate(elements)}
    return tuple(
        tuple(index[tuple(p[q[x]] for x in range(4))] for q in elements)
        for p in elements)


def _dicyclic(m):
    # order 4m, Dic_2 = Q8: (i, j) is a^i x^j with a^(2m) = 1, x^2 = a^m and
    # x a = a^-1 x, so (i, 0)(k, l) = (i + k, l); (i, 1)(k, 0) = (i - k, 1);
    # (i, 1)(k, 1) = (i - k + m, 0), all mod 2m
    elements = tuple(product(range(2 * m), range(2)))
    index = {e: i for i, e in enumerate(elements)}

    def multiply(a, b):
        (i, j), (k, l) = a, b
        if j == 0:
            return ((i + k) % (2 * m), l)
        if l == 0:
            return ((i - k) % (2 * m), 1)
        return ((i - k + m) % (2 * m), 0)

    return tuple(tuple(index[multiply(a, b)] for b in elements)
                 for a in elements)


def small_groups():
    """All groups of order at most twelve, keyed by conventional name.

    Every table is validated before being returned, so a typo in a
    construction fails loudly here rather than corrupting a count.
    """
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
