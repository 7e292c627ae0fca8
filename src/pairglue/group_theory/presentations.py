"""Finite presentations read off paired complexes, and Tietze tooling.

Two independent routes produce a presentation of the fundamental group of a
glued complex:

* :func:`presentation_from_pairings` -- one generator per pairing, one relator
  per edge-class cycle word (the dual picture: loops through face pairs).
* :func:`presentation_from_cw` -- one generator per edge class, one relator per
  face pair reading the boundary word of the source face, plus one single-
  letter relator per edge of a spanning tree of the glued 1-skeleton.

Keeping both routes intact is the point: they must agree on every invariant
computed downstream, and the tests hold them against each other.
"""

from collections import Counter

from ..complex_core import _Immutable, _join, _orbit_data, vertex_orbits
from ..errors import CapacityError, DomainError, EliminationError
from ..families import _check_n, _labellers, build_family
from .words import Word, _inverse_letters, _word, cyclic_reduce, free_reduce

__all__ = ["Presentation", "auto_simplify", "family_elimination_order",
           "preset_presentation", "presentation_from_cw",
           "presentation_from_pairings", "reduced_family_presentation",
           "scripted_reduction", "tietze_eliminate"]

# auto_simplify gives up past this many relator letters in all: raw m25(14)
# peaks at 432,082, and from m25(15) on the growth passes the bound
MAX_SIMPLIFY_LETTERS = 2 ** 20


class Presentation(_Immutable):
    """An ordered generator list plus a list of relator words.

    Presentations are immutable: assigning to an attribute raises
    AttributeError.  The result of :func:`auto_simplify` is computed on first
    use and kept on the instance, so a presentation is simplified once however
    many times it is counted or reduced; the simplified presentation keeps its
    relators as compiled by the homomorphism counter the same way, and the
    counter keeps the first homology it reads for abelian targets.
    """

    __slots__ = ("generators", "relators", "_simplified", "_compiled", "_h1")

    def __init__(self, generators, relators):
        generators = tuple(str(g) for g in generators)
        if len(set(generators)) != len(generators):
            raise DomainError("duplicate generator name in presentation")
        known = set(generators)
        rels = []
        for relator in relators:
            if not isinstance(relator, Word):
                relator = Word(relator)
            unknown = relator.generators() - known
            if unknown:
                raise DomainError(
                    f"unknown generator {sorted(unknown)[0]!r} in relator")
            rels.append(relator)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", tuple(rels))
        object.__setattr__(self, "_simplified", None)
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_h1", None)

    def __reduce__(self):
        return (Presentation, (self.generators, self.relators))

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.generators == other.generators
                and self.relators == other.relators)

    def __repr__(self):
        gens = " ".join(self.generators)
        rels = ", ".join(str(r) for r in self.relators)
        return f"<Presentation <{gens} | {rels}>>"


def presentation_from_pairings(complex_):
    """Generators = pairing names, relators = edge-class cycle words."""
    orbits, _, _ = _orbit_data(complex_)
    generators = [p.name for p in complex_.pairings]
    return Presentation(generators, [orbit.cycle_word for orbit in orbits])


def _spanning_tree(orbit_edges, vertex_class, generators, preferred):
    """Pick one generator per spanning-tree edge of the glued 1-skeleton.

    ``orbit_edges`` maps generator name -> (vertex class, vertex class) of its
    edge's endpoints.  When ``preferred`` names are given they must form a
    spanning tree on their own; otherwise the tree is grown greedily in
    generator order.
    """
    classes = set(vertex_class.values())
    if len(classes) <= 1:
        if preferred:
            raise DomainError("tree edges given for a complex with one vertex class")
        return []
    parent = {c: c for c in classes}
    tree = []
    if preferred:
        for name in preferred:
            if name not in orbit_edges:
                raise DomainError(f"unknown tree generator {name!r}")
            if not _join(parent, *orbit_edges[name]):
                raise DomainError(f"tree generator {name!r} closes a cycle")
            tree.append(name)
    else:
        for name in generators:
            if _join(parent, *orbit_edges[name]):
                tree.append(name)
    if len(tree) != len(classes) - 1:
        raise DomainError("tree edges do not span the glued 1-skeleton")
    return tree


def presentation_from_cw(complex_):
    """Edge-class generators, face-pair boundary relators, tree relators.

    The spanning tree is the complex's ``preferred_tree`` when it has one
    (which must span on its own), else one grown greedily in generator order.

    Generator naming follows the complex's ``edge_names`` metadata, which
    must name every edge class exactly once or raise DomainError (the family
    builders emit x_i, y_i, z_i, u and, for even-parameter second-family
    complexes, v); without metadata the classes are e1..ek in class order.
    An anchor flagged as reversed gives its generator the direction opposite
    to the anchor slot's stored arrow, which fixes every appearance's sign.
    """
    orbits, slot_sign, orbit_index = _orbit_data(complex_)

    names = [f"e{i + 1}" for i in range(len(orbits))]
    anchor_sign = [1] * len(orbits)
    order = list(range(len(orbits)))
    if complex_.edge_names:
        order = []
        for name, face, slot_index, reversed_flag in complex_.edge_names:
            idx = orbit_index.get((face, slot_index))
            if idx is not None:
                names[idx] = name
                anchor_sign[idx] = (slot_sign[(face, slot_index)]
                                    * (-1 if reversed_flag else 1))
            order.append(idx)
        if len(order) != len(orbits) or set(order) != set(range(len(orbits))):
            raise DomainError("edge naming metadata does not match the edge classes")

    generators = [names[idx] for idx in order]

    relators = []
    for pairing in complex_.pairings:
        letters = []
        for k in range(len(complex_.faces[pairing.source])):
            slot = (pairing.source, k)
            idx = orbit_index[slot]
            letters.append((names[idx], slot_sign[slot] * anchor_sign[idx]))
        relators.append(Word(letters))

    vclass = {}
    for orbit in vertex_orbits(complex_):
        for v in orbit.member_vertices:
            vclass[v] = orbit.representative
    orbit_edges = {}
    for idx, orbit in enumerate(orbits):
        tail, head = complex_.slot_endpoints(orbit.representative)
        orbit_edges[names[idx]] = (vclass[tail], vclass[head])

    for name in _spanning_tree(orbit_edges, vclass, generators,
                               complex_.preferred_tree):
        relators.append(Word([(name, 1)]))

    return Presentation(generators, relators)


def _definitions(presentation):
    """Every defining relator of every generator, from one pass.

    A relator defines g exactly when its cyclic reduction holds g once:
    rotated to start at that letter (and inverted first when the letter is
    ``g^-1``) it reads ``g * w^-1`` with ``w`` free of g, so a relator defines
    g at most once.  Returns ``{g: [(length, relator index, letters), ...]}``
    in relator order, where ``letters`` is the cyclic reduction and
    ``length`` its length; :func:`_defining_word` gives ``w``.
    """
    definitions = {}
    for index, relator in enumerate(presentation.relators):
        letters = cyclic_reduce(relator).letters
        for name, count in Counter(name for name, _ in letters).items():
            if count == 1:
                definitions.setdefault(name, []).append(
                    (len(letters), index, letters))
    return definitions


def _defining_word(letters, generator):
    """The word ``w`` such that cyclically reduced ``letters``, which hold
    ``generator`` (g) once, read ``g * w^-1`` up to rotation and
    inversion."""
    position = [name for name, _ in letters].index(generator)
    # the letters after g, read cyclically: the relator is g^+-1 * rest
    rest = letters[position + 1:] + letters[:position]
    if letters[position][1] == 1:
        return _word(_inverse_letters(rest))
    return _word(rest)


def _apply_elimination(presentation, generator, relator_index, replacement):
    forward = replacement.letters
    backward = _inverse_letters(forward)
    generators = [g for g in presentation.generators if g != generator]
    relators = []
    for index, relator in enumerate(presentation.relators):
        if index == relator_index:
            continue
        letters = []
        for letter in relator.letters:
            if letter[0] != generator:
                letters.append(letter)
            elif letter[1] == 1:
                letters.extend(forward)
            else:
                letters.extend(backward)
        new = free_reduce(_word(tuple(letters)))
        if new.letters:
            relators.append(new)
    return Presentation(generators, relators)


def tietze_eliminate(presentation, generator):
    """Eliminate one generator using a defining relator.

    A defining relator is one that, up to cyclic rotation and inversion, reads
    ``g * w^-1`` with ``w`` free of ``g``.  The relator is removed, ``g`` is
    replaced by ``w`` everywhere, results are freely reduced and trivial
    relators dropped.  Raises EliminationError when no relator defines ``g``.
    """
    if generator not in presentation.generators:
        raise DomainError(f"unknown generator {generator!r}")
    definitions = _definitions(presentation).get(generator)
    if not definitions:
        raise EliminationError(f"no defining relator for {generator!r}")
    _, index, letters = min(definitions)
    return _apply_elimination(presentation, generator, index,
                              _defining_word(letters, generator))


def auto_simplify(presentation):
    """Iterated Tietze elimination with a deterministic schedule.

    At each step every generator owning a defining relator competes; the one
    whose best defining relator is globally shortest wins, earliest generator
    on ties.  Stops when no generator can be eliminated, and raises
    CapacityError once an elimination leaves more than MAX_SIMPLIFY_LETTERS
    letters in all relators.  The result is kept on the presentation, so
    later calls return it without recomputing.
    """
    simplified = presentation._simplified
    if simplified is None:
        simplified = _simplify(presentation)
        object.__setattr__(presentation, "_simplified", simplified)
    return simplified


def _simplify(presentation):
    current = presentation
    while True:
        # each generator's first shortest defining relator is the one
        # tietze_eliminate uses; the shortest of those wins, earliest
        # generator on ties
        definitions = _definitions(current)
        if not definitions:
            # nothing is left to eliminate: the result simplifies to itself
            object.__setattr__(current, "_simplified", current)
            return current
        position = {g: i for i, g in enumerate(current.generators)}
        best = {g: min(options) for g, options in definitions.items()}
        generator = min(best, key=lambda g: (best[g][0], position[g]))
        _, index, letters = best[generator]
        current = _apply_elimination(current, generator, index,
                                     _defining_word(letters, generator))
        size = sum(map(len, current.relators))
        if size > MAX_SIMPLIFY_LETTERS:
            raise CapacityError(f"simplification grew the relators to {size} "
                                f"letters, past {MAX_SIMPLIFY_LETTERS}")


def family_elimination_order(n):
    """The scripted elimination schedule: b_1..b_n, a_1..a_n, d."""
    return ([f"b{i}" for i in range(1, n + 1)]
            + [f"a{i}" for i in range(1, n + 1)]
            + ["d"])


def scripted_reduction(family, n):
    """Yield the presentations along the scripted family reduction.

    The first value is the raw pairing presentation; each subsequent value
    eliminates the next generator of :func:`family_elimination_order`.  The
    defining relator for each step must express the generator by a nonempty
    word in the surviving c-generators alone; among those, positive
    replacement words are preferred on relator-length ties.  The family
    substitutions are all positive (b from the squared-letter relators, a
    from the chain relators, d from the first lid relator), so this pins the
    same elimination path at every n and keeps the lid relators as
    survivors.  A missing defining relator is a logic failure for these
    families, hence RuntimeError rather than EliminationError.
    """
    complex_ = build_family(family, n)
    current = presentation_from_pairings(complex_)
    yield current
    surviving = {f"c{i}" for i in range(1, n + 1)}
    for generator in family_elimination_order(n):
        options = []
        for length, index, letters in _definitions(current).get(generator, ()):
            replacement = _defining_word(letters, generator)
            if replacement.letters and replacement.generators() <= surviving:
                positive = all(sign == 1 for _, sign in replacement.letters)
                options.append((length, not positive, index, replacement))
        if not options:
            raise RuntimeError(
                f"scripted elimination of {generator!r} failed at n={n}")
        _, _, index, replacement = min(options)
        current = _apply_elimination(current, generator, index, replacement)
        yield current


def reduced_family_presentation(family, n):
    """The n-generator presentation on c_1..c_n after the scripted reduction.

    >>> p = reduced_family_presentation("m24", 3)
    >>> p.generators
    ('c1', 'c2', 'c3')
    """
    for presentation in scripted_reduction(family, n):
        pass
    return presentation


_PRESETS = ("G25", "H25", "DUAL24", "SEIFERT_M24_2")


def preset_presentation(preset, n=1):
    """Fixed comparison presentations used to cross-check the derived ones.

    ``G25``/``H25`` are the edge-generator presentations of the second family
    (odd and even parameter respectively; H25 rejects odd n), ``DUAL24`` the
    edge-generator presentation of the first family, and ``SEIFERT_M24_2`` a
    four-generator Seifert-style presentation matched against the reduced
    first-family presentation at n = 2 (the ``n`` argument is ignored there).
    """
    tag = str(preset)
    if tag not in _PRESETS:
        raise DomainError(f"unknown preset {preset!r} (expected one of {_PRESETS})")

    if tag == "SEIFERT_M24_2":
        gens = ["x", "y", "z", "h"]
        rels = [Word.parse("x y z"),
                Word.parse("x h -x -h"),
                Word.parse("y h -y -h"),
                Word.parse("z h -z -h"),
                Word.parse("x x x h"),
                Word.parse("y y y h h"),
                Word.parse("z z z -h")]
        return Presentation(gens, rels)

    _check_n(n)
    x, y, z = _labellers("xyz", n)
    gens = ([x(i) for i in range(1, n + 1)]
            + [y(i) for i in range(1, n + 1)]
            + [z(i) for i in range(1, n + 1)]
            + ["u"])
    surface = Word([(x(i), 1) for i in range(1, n + 1)])

    if tag == "DUAL24":
        rels = [surface]
        rels += [Word([(x(i), 1), ("u", 1), (y(i), -1)]) for i in range(1, n + 1)]
        rels += [Word([(x(i), 1), (y(i + 2), 1), (z(i + 2), -1)])
                 for i in range(1, n + 1)]
        rels += [Word([(z(i), 1), (z(i), 1), (y(i - 1), 1)]) for i in range(1, n + 1)]
        return Presentation(gens, rels)

    if tag == "G25":
        rels = [surface]
        rels += [Word([(x(i), 1), (y(i), 1), ("u", -1)]) for i in range(1, n + 1)]
        rels += [Word([(y(i), 1), (z(i), 1), (x(i - 1), -1)]) for i in range(1, n + 1)]
        rels += [Word([(z(i - 1), 1), (z(i), 1), (y(i - 1), -1)])
                 for i in range(1, n + 1)]
        return Presentation(gens, rels)

    # H25: even parameter only; the odd-indexed face words share u while the
    # even-indexed ones close on their own (their shared letter bounds a disk).
    if n % 2 != 0:
        raise DomainError("preset H25 requires an even parameter")
    rels = [surface]
    rels += [Word([(y(i), 1), (z(i), 1), (x(i - 1), -1)]) for i in range(1, n + 1)]
    rels += [Word([(z(i - 1), 1), (z(i), 1), (y(i - 1), -1)]) for i in range(1, n + 1)]
    rels += [Word([(x(i), 1), (y(i), 1), ("u", -1)]) for i in range(1, n + 1, 2)]
    rels += [Word([(x(i), 1), (y(i), 1)]) for i in range(2, n + 1, 2)]
    return Presentation(gens, rels)
