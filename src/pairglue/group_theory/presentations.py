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

from ..complex_core import (_hashable, _Immutable, _join, _orbit_data,
                            edge_orbits, vertex_orbits)
from ..errors import CapacityError, DomainError, EliminationError
from ..families import _check_n, _index_labels, _rotated, build_family
from .words import (Word, _cyclic_core, _free_reduction, _inverse_letters,
                    _word)

__all__ = ["Presentation", "auto_simplify", "family_elimination_order",
           "preset_presentation", "presentation_from_cw",
           "presentation_from_pairings", "reduced_family_presentation",
           "scripted_reduction", "tietze_eliminate"]

# auto_simplify gives up past this many relator letters in all: raw m25(14)
# peaks at 432,082, and from m25(15) on the growth passes the bound
MAX_SIMPLIFY_LETTERS = 2 ** 20


class Presentation(_Immutable):
    """An ordered generator list plus a list of relator words.

    Generator names are str; any other name raises DomainError, as does a
    repeated name or a relator letter that names no generator.
    Presentations are immutable: assigning to an attribute raises
    AttributeError.  The result of :func:`auto_simplify` (or its CapacityError)
    is kept on the instance, so a presentation is simplified once however
    many times it is counted or reduced; the simplified presentation keeps its
    relators as compiled by the homomorphism counter the same way, with its
    homomorphisms into each abelian quotient the counter prunes by, and the
    counter keeps the first homology it reads for abelian targets.
    """

    __slots__ = ("generators", "relators", "_simplified", "_compiled", "_h1")

    def __init__(self, generators, relators):
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, str):
                raise DomainError(f"generator name is not a str: {g!r}")
        if len(set(generators)) != len(generators):
            raise DomainError("duplicate generator name in presentation")
        known = set(generators)
        rels = []
        for relator in relators:
            if not isinstance(relator, Word):
                relator = Word(relator)
            if not known.issuperset(dict(relator.letters)):
                unknown = relator.generators() - known
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
    """Generators = pairing names, relators = edge-class cycle words.

    This presents pi1 of the glued space minus its vertex classes, the
    group of the dual 2-complex.  :func:`presentation_from_cw` presents pi1
    of the glued space itself; the two agree when every vertex link is a
    sphere, so on a valid complex that is not a manifold they may differ.
    """
    generators = [p.name for p in complex_.pairings]
    return Presentation(generators, [o.cycle_word for o in edge_orbits(complex_)])


def _spanning_tree(orbit_edges, vertex_class, generators, preferred):
    """Pick one generator per spanning-tree edge of the glued 1-skeleton.

    ``orbit_edges`` maps generator name -> (vertex class, vertex class) of its
    edge's endpoints.  When ``preferred`` names are given they must form a
    spanning tree on their own; otherwise the tree is grown greedily in
    generator order.  A ``preferred`` entry that cannot be hashed names no
    generator and raises DomainError.
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
            if not _hashable(name):
                raise DomainError(f"malformed preferred_tree entry {name!r}")
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

    This presents pi1 of the glued space itself, also on a valid complex
    that is not a manifold, where :func:`presentation_from_pairings`
    presents the complement of the vertex classes instead.

    The spanning tree is the complex's ``preferred_tree`` when it has one
    (which must span on its own), else one grown greedily in generator order.

    Generator naming follows the complex's ``edge_names`` metadata, which
    must name every edge class exactly once or raise DomainError (the family
    builders emit x_i, y_i, z_i, u and, for even-parameter second-family
    complexes, v); without metadata the classes are e1..ek in class order.
    An anchor flagged as reversed gives its generator the direction opposite
    to the anchor slot's stored arrow, which fixes every appearance's sign.
    An entry that is not a ``(name, face, k, reversed)`` anchor whose name
    and slot ``(face, k)`` can be hashed raises DomainError.  Signs and
    classes are read by slot number: slot ``k`` of face ``f`` is
    ``start[f] + k``.
    """
    orbits, start, sign, orbit_of = _orbit_data(complex_)

    names = [f"e{i + 1}" for i in range(len(orbits))]
    anchor_sign = [1] * len(orbits)
    order = list(range(len(orbits)))
    if complex_.edge_names:
        order = []
        for entry in complex_.edge_names:
            try:
                name, face, k, reversed_flag = entry
                hash((name, face, k))  # a generator name and a slot
            except (TypeError, ValueError):
                raise DomainError(f"malformed edge_names entry {entry!r}") from None
            idx = None
            if face in start and k in range(len(complex_.faces[face])):
                i = start[face] + int(k)  # k equals an int index (1.0 may)
                idx = orbit_of[i]
                names[idx] = name
                anchor_sign[idx] = sign[i] * (-1 if reversed_flag else 1)
            order.append(idx)
        if len(order) != len(orbits) or set(order) != set(range(len(orbits))):
            raise DomainError("edge naming metadata does not match the edge classes")

    generators = [names[idx] for idx in order]

    relators = []
    for pairing in complex_.pairings:
        first = start[pairing.source]
        slots = range(first, first + len(complex_.faces[pairing.source]))
        relators.append(Word([(names[orbit_of[i]],
                               sign[i] * anchor_sign[orbit_of[i]]) for i in slots]))

    vclass = {v: orbit.representative for orbit in vertex_orbits(complex_)
              for v in orbit.member_vertices}
    orbit_edges = {name: tuple(vclass[v] for v in complex_.slot_endpoints(
        orbit.representative)) for name, orbit in zip(names, orbits)}

    for name in _spanning_tree(orbit_edges, vclass, generators,
                               complex_.preferred_tree):
        relators.append(Word([(name, 1)]))

    return Presentation(generators, relators)


class _Relators:
    """The relators of a presentation under Tietze elimination, each read
    once and read again only when an elimination rewrites it.

    ``words`` maps each relator's key, its position in the given
    presentation, to its free reduction, in relator order; an empty one is
    dropped.  ``entries`` maps the key to the relator's cyclic reduction,
    the generators that reduction holds exactly once and the generators the
    word holds.  ``defines[g]`` maps the key of each relator whose cyclic
    reduction holds g once to that reduction's length, and ``holders[g]`` is
    the set of keys whose word holds g; every ranking breaks ties by key,
    which keeps relator order.  ``size`` counts the letters of all words.

    A relator defines g exactly when its cyclic reduction holds g once:
    rotated to start at that letter (and inverted first when the letter is
    ``g^-1``) it reads ``g * w^-1`` with ``w`` free of g, so a relator
    defines g at most once; :func:`_defining_word` gives ``w``.
    """

    __slots__ = ("generators", "words", "entries", "defines", "holders",
                 "size")

    def __init__(self, presentation):
        self.generators = list(presentation.generators)
        reduced = (_free_reduction(r.letters) for r in presentation.relators)
        self.words = {key: _word(letters)
                      for key, letters in enumerate(reduced) if letters}
        self.entries = {}
        self.defines = {g: {} for g in self.generators}
        self.holders = {g: set() for g in self.generators}
        self.size = 0
        for key in self.words:
            self._read(key)

    def _read(self, key):
        word = self.words[key]
        cyclic = _cyclic_core(word.letters).letters
        counts = Counter(name for name, _ in cyclic)
        defined = [name for name, count in counts.items() if count == 1]
        if len(cyclic) == len(word):
            held = counts.keys()
        else:
            held = {name for name, _ in word.letters}
        self.entries[key] = (cyclic, defined, held)
        for name in defined:
            self.defines[name][key] = len(cyclic)
        for name in held:
            self.holders[name].add(key)
        self.size += len(word)

    def _forget(self, key):
        _, defined, held = self.entries.pop(key)
        for name in defined:
            del self.defines[name][key]
        for name in held:
            self.holders[name].discard(key)
        self.size -= len(self.words[key])

    def shortest(self, generator):
        """(length, key) of its first shortest defining relator (it has one)."""
        keys = self.defines[generator]
        return min((length, key) for key, length in keys.items())

    def replacement(self, generator, key):
        """The word ``w`` that the relator at ``key``, which defines
        ``generator``, puts in its place."""
        return _defining_word(self.entries[key][0], generator)

    def eliminate(self, generator, key):
        """Drop the relator at ``key``, which defines ``generator``, and
        replace ``generator`` by its :meth:`replacement` everywhere, freely
        reducing and dropping the relators that become trivial.

        Only the relators that hold the generator are rewritten, each
        substituted and freely reduced in one pass, and read again.
        """
        forward = self.replacement(generator, key).letters
        backward = _inverse_letters(forward)
        for index in list(self.holders[generator]):
            self._forget(index)
            if index == key:
                del self.words[index]
                continue
            letters = _free_reduction(_substituted(
                self.words[index].letters, generator, forward, backward))
            if not letters:
                del self.words[index]
            else:
                self.words[index] = _word(letters)
                self._read(index)
        self.generators.remove(generator)
        del self.defines[generator], self.holders[generator]

    def presentation(self):
        return Presentation(self.generators, self.words.values())


def _substituted(letters, generator, forward, backward):
    """``letters`` with each letter ``(generator, 1)`` replaced by the
    letters ``forward`` and each ``(generator, -1)`` by ``backward``."""
    for letter in letters:
        if letter[0] != generator:
            yield letter
        elif letter[1] == 1:
            yield from forward
        else:
            yield from backward


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


def tietze_eliminate(presentation, generator):
    """Eliminate one generator using a defining relator.

    A defining relator is one that, up to cyclic rotation and inversion, reads
    ``g * w^-1`` with ``w`` free of ``g``.  The relator is removed, ``g`` is
    replaced by ``w`` everywhere, results are freely reduced and trivial
    relators dropped.  Raises EliminationError when no relator defines ``g``.
    """
    if generator not in presentation.generators:
        raise DomainError(f"unknown generator {generator!r}")
    relators = _Relators(presentation)
    if not relators.defines[generator]:
        raise EliminationError(f"no defining relator for {generator!r}")
    relators.eliminate(generator, relators.shortest(generator)[1])
    return relators.presentation()


def auto_simplify(presentation):
    """Iterated Tietze elimination with a deterministic schedule.

    At each step every generator owning a defining relator competes; the one
    whose best defining relator is globally shortest wins, earliest generator
    on ties.  Stops when no generator can be eliminated, and raises
    CapacityError once an elimination leaves more than MAX_SIMPLIFY_LETTERS
    letters in all relators.  Each relator is freely reduced once, and its
    cyclic reduction and the generators it defines are read once and kept
    between steps; every step rewrites and reads again only the relators
    that hold the eliminated generator, and one presentation is built at
    the end (or none, when no generator is eliminated: the given one is the
    result).  The result, or that CapacityError, is kept on the
    presentation, so later calls return it, or raise it, at once.
    """
    simplified = presentation._simplified
    if simplified is None:
        try:
            simplified = _simplify(presentation)
        except CapacityError as exc:
            simplified = exc
        object.__setattr__(presentation, "_simplified", simplified)
    if isinstance(simplified, CapacityError):
        # without its last traceback, whose frames hold the grown relators
        raise simplified.with_traceback(None)
    return simplified


def _simplify(presentation):
    relators = _Relators(presentation)
    while True:
        # each generator's first shortest defining relator is the one
        # tietze_eliminate uses; the shortest of those wins, and min keeps
        # the earliest generator on ties
        moves = [(relators.shortest(g), g) for g in relators.generators
                 if relators.defines[g]]
        if not moves:
            break
        (_, key), generator = min(moves, key=lambda move: move[0][0])
        relators.eliminate(generator, key)
        if relators.size > MAX_SIMPLIFY_LETTERS:
            raise CapacityError(f"simplification grew the relators to "
                                f"{relators.size} letters, past "
                                f"{MAX_SIMPLIFY_LETTERS}")
    # nothing is left to eliminate: the result simplifies to itself
    if len(relators.generators) < len(presentation.generators):
        presentation = relators.presentation()
    object.__setattr__(presentation, "_simplified", presentation)
    return presentation


def family_elimination_order(n):
    """The scripted elimination schedule: b_1..b_n, a_1..a_n, d."""
    _check_n(n)
    b, a = _index_labels("ba", n).values()
    return [*b, *a, "d"]


def _scripted_states(presentation, n):
    """Yield the one elimination state of ``presentation`` after each step
    of :func:`scripted_reduction`."""
    relators = _Relators(presentation)
    surviving = set(_index_labels("c", n)["c"])
    for generator in family_elimination_order(n):
        options = []
        for key, length in relators.defines.get(generator, {}).items():
            replacement = relators.replacement(generator, key)
            if replacement.letters and replacement.generators() <= surviving:
                positive = all(sign == 1 for _, sign in replacement.letters)
                options.append((length, not positive, key))
        if not options:
            raise RuntimeError(
                f"scripted elimination of {generator!r} failed at n={n}")
        relators.eliminate(generator, min(options)[2])
        yield relators


def scripted_reduction(family, n):
    """Yield the presentations along the scripted family reduction.

    The first value is the raw pairing presentation; each later value is
    built from one elimination state after it eliminates the next generator
    of :func:`family_elimination_order`.  The defining relator for each step
    must express the generator by a nonempty word in the surviving
    c-generators alone; among those, positive replacement words are
    preferred on relator-length ties.  The family substitutions are all
    positive (b from the squared-letter relators, a from the chain
    relators, d from the first lid relator), so this pins the same
    elimination path at every n and keeps the lid relators as survivors.
    A missing defining relator is a logic failure for these families,
    hence RuntimeError rather than EliminationError.
    """
    raw = presentation_from_pairings(build_family(family, n))
    yield raw
    for relators in _scripted_states(raw, n):
        yield relators.presentation()


def reduced_family_presentation(family, n):
    """The n-generator presentation on c_1..c_n after the scripted reduction.

    Its steps run on one elimination state, which builds only the result.

    >>> p = reduced_family_presentation("m24", 3)
    >>> p.generators
    ('c1', 'c2', 'c3')
    """
    raw = presentation_from_pairings(build_family(family, n))
    for relators in _scripted_states(raw, n):
        pass
    return relators.presentation()


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
    x, y, z = _index_labels("xyz", n).values()
    gens = [*x, *y, *z, "u"]
    rels = [Word([(a, 1) for a in x])]

    if tag == "DUAL24":
        rels += [Word([(a, 1), ("u", 1), (b, -1)]) for a, b in zip(x, y)]
        rels += [Word([(a, 1), (b, 1), (c, -1)])
                 for a, b, c in zip(x, _rotated(y, 2), _rotated(z, 2))]
        rels += [Word([(c, 1), (c, 1), (b, 1)]) for b, c in zip(_rotated(y, -1), z)]
        return Presentation(gens, rels)

    if tag == "H25" and n % 2 != 0:
        raise DomainError("preset H25 requires an even parameter")
    if tag == "G25":
        rels += [Word([(a, 1), (b, 1), ("u", -1)]) for a, b in zip(x, y)]
    rels += [Word([(b, 1), (c, 1), (a, -1)]) for a, b, c in zip(_rotated(x, -1), y, z)]
    rels += [Word([(c, 1), (d, 1), (b, -1)])
             for b, c, d in zip(_rotated(y, -1), _rotated(z, -1), z)]
    if tag == "H25":
        # odd face words share u; even ones close, their shared letter bounding a disk
        rels += [Word([(a, 1), (b, 1), ("u", -1)]) for a, b in zip(x[::2], y[::2])]
        rels += [Word([(a, 1), (b, 1)]) for a, b in zip(x[1::2], y[1::2])]
    return Presentation(gens, rels)
