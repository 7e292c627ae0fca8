"""Face-paired polyhedral complexes and their cell-orbit analysis.

A PairedComplex models the boundary sphere of a single polyhedron cut into
polygonal faces, together with a pairing of those faces.  Gluing each face to
its partner produces a closed pseudo-manifold; the classes of this module
compute the cells of that quotient (vertex classes, edge classes with their
cycle words, face pairs) and certify manifoldness through the Euler
characteristic.

Complexes are immutable and pairings are namedtuples; each fixes the natural
order of its face and vertex labels when it is constructed, and every scan
reads that order.  A complex is analysed once, on first use: its violations,
edge classes and vertex classes are kept on it, and the analysis functions
return fresh lists or read-only views.

Edges are positional throughout: slot ``k`` of a face is the directed edge
from its ``k``-th boundary vertex to the next one, addressed as
``(face_label, k)``.  Validation numbers the slots once, in scan order (faces
in natural order, then ``k``), so slot ``k`` of face ``f`` has number
``start[f] + k``; it checks them and walks the orientation by face number,
over lists indexed by those numbers.  The edge traversal reads the same
lists; its pass over the pairings joins the vertex classes too.  The slot
number is the only per-slot key the analysis keeps: each face's first slot
number, and each slot's face number, mate, alignment, traversal sign and
edge class, which :func:`_orbit_data`, the CW route to π1 and
:mod:`pairglue.symmetry` read.  The results name slots as tuples.  Vertex
labels play no role in identification; they may repeat along a single face
(small complexes have monogons and loops).
"""

import functools
import re
from collections import Counter, namedtuple
from types import MappingProxyType

from .errors import DomainError, StructureError

__all__ = ["CellCounts", "EdgeOrbit", "PairedComplex", "Pairing",
           "VertexOrbit", "cell_counts", "edge_orbits", "is_manifold",
           "validate", "vertex_orbits"]

_DIGIT_RUN = re.compile(r"(\d+)")


@functools.lru_cache(maxsize=1 << 14)
def natural_key(label):
    """Sort key that orders embedded integers numerically.

    Keys are immutable tuples and members share most of their labels, so
    they are cached (``re`` imports ``functools`` anyway).  The bound is
    above the 10,002 labels of m25(1000): a complex with more labels than
    the cache holds misses on every one when it sorts them.

    >>> sorted(["P10", "P2", "Q1"], key=natural_key)
    ['P2', 'P10', 'Q1']
    """
    parts = _DIGIT_RUN.split(label)  # the digit runs are the odd parts
    if len(parts) == 3:  # one digit run, as in every family label
        return parts[0], int(parts[1]), parts[2]
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def format_slot(slot):
    """Render a slot as ``FACE.k``, the form used in documents and reports;
    a value that does not unpack to two parts is rendered with ``repr``."""
    try:
        label, k = slot
    except (TypeError, ValueError):
        return repr(slot)
    return f"{label}.{k}"


class _Immutable:
    """Base of the value classes other than namedtuples: slots are set once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot delete {name!r}")


def _find(parent, x):
    """Root of ``x`` in the union-find forest ``parent`` (path halving)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent, a, b):
    """Merge the classes of ``a`` and ``b``; False when already merged."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


class Pairing(namedtuple("Pairing", ["name", "source", "target", "offset",
                                     "direction"], defaults=(0, 1))):
    """An identification of one face with another.

    The correspondence is cyclic-affine on slot indices: vertex ``j`` of the
    source goes to vertex ``(offset + direction*j) mod L`` of the target,
    where ``direction`` is +1 or -1.  Consequently slot ``k`` of the source is
    carried to slot ``(offset + k) mod L`` read forwards when direction is +1,
    and to slot ``(offset - k - 1) mod L`` read backwards when direction is -1.
    This is fully general for polygon-to-polygon identifications.
    """

    __slots__ = ()

    def vertex_image(self, j, length):
        return (self.offset + self.direction * j) % length


class PairedComplex(_Immutable):
    """A polyhedron boundary with paired faces.

    Parameters
    ----------
    vertex_labels : iterable of str
    faces : mapping or iterable of (label, vertex list); the list is the
        face's boundary cycle and its starting point is significant (it fixes
        slot indices).
    involution : iterable of (slot, slot, aligned) triples or a prebuilt
        ``{slot: (slot, aligned)}`` mapping.  Two slots form one polyhedron
        edge; ``aligned`` is True when their stored directions traverse the
        edge the same way.
    pairings : iterable of Pairing.

    ``name`` and ``n`` are serialized; ``edge_names`` / ``preferred_tree``
    are optional presentation metadata (see group_theory.presentations) and
    take no part in structural identity or serialization.

    ``faces`` and ``involution`` are read-only mappings, the other fields
    tuples or scalars.  ``face_order`` and ``vertex_order`` hold the face and
    vertex labels in natural order (embedded integers compare numerically;
    labels whose keys tie keep the order they were given in), fixed at
    construction; every scan of the complex reads them.

    Construction is deliberately permissive: malformed data, such as faces
    that the involution does not join into one nonempty boundary, is
    accepted and reported by :func:`validate` (on first analysis), which is
    what the error contract requires.  Only arguments that cannot be
    converted raise DomainError: an argument that is not a collection, a
    label that is not a str, a face that is not a vertex list, an involution
    entry that is not a slot's mate with its alignment, and a pairing entry
    that is not a :class:`Pairing`.  Malformed metadata entries are refused
    by :func:`~pairglue.group_theory.presentations.presentation_from_cw`.
    """

    __slots__ = ("vertex_labels", "faces", "involution", "pairings", "name",
                 "n", "edge_names", "preferred_tree", "face_order",
                 "vertex_order", "_analysis", "__weakref__")

    def __init__(self, vertex_labels, faces, involution, pairings,
                 name="complex", n=None, edge_names=(), preferred_tree=()):
        mates, slot, entry = {}, None, involution
        try:
            if hasattr(involution, "items"):
                for slot, entry in involution.items():
                    mate, aligned = entry
                    mates[slot] = (tuple(mate), bool(aligned))
            else:
                for entry in involution:
                    a, b, aligned = entry
                    a, b = tuple(a), tuple(b)
                    mates[a] = (b, bool(aligned))
                    mates[b] = (a, bool(aligned))
        except (TypeError, ValueError):  # not a slot with its mate
            if hasattr(involution, "items"):
                raise DomainError(
                    f"involution entry of slot {format_slot(slot)} is not a "
                    f"(mate, aligned) pair: {entry!r}") from None
            raise DomainError(f"involution entry {entry!r} is not a "
                              "(slot, mate, aligned) triple") from None
        converted = []
        for field, value, convert in (("faces", faces, dict),
                                      ("vertex_labels", vertex_labels, tuple),
                                      ("pairings", pairings, tuple),
                                      ("edge_names", edge_names, tuple),
                                      ("preferred_tree", preferred_tree, tuple)):
            try:
                converted.append(convert(value))
            except (TypeError, ValueError):  # not a collection of entries
                raise DomainError(f"{field} argument cannot be read: "
                                  f"{value!r}") from None
        faces, vertex_labels, pairings, edge_names, preferred_tree = converted
        try:
            for label, vertices in faces.items():
                faces[label] = tuple(vertices)
        except TypeError:
            raise DomainError(f"face {label} is not a vertex list: "
                              f"{vertices!r}") from None
        # a Pairing equals the tuple of its fields, but a tuple is no Pairing
        for pairing in pairings:
            if not isinstance(pairing, Pairing):
                raise DomainError(f"pairing entry {pairing!r} is not a Pairing")
        object.__setattr__(self, "vertex_labels", vertex_labels)
        object.__setattr__(self, "faces", MappingProxyType(faces))
        object.__setattr__(self, "involution", MappingProxyType(mates))
        object.__setattr__(self, "pairings", pairings)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_names", edge_names)
        object.__setattr__(self, "preferred_tree", preferred_tree)
        for kind, labels in (("face", faces), ("vertex", self.vertex_labels)):
            try:  # natural_key reads str labels only
                object.__setattr__(self, f"{kind}_order",
                                   tuple(sorted(labels, key=natural_key)))
            except TypeError:
                bad = next(v for v in labels if not isinstance(v, str))
                raise DomainError(f"{kind} label {bad!r} is not a str") from None
        object.__setattr__(self, "_analysis", None)

    def __reduce__(self):
        return (PairedComplex, (self.vertex_labels, dict(self.faces),
                                dict(self.involution), self.pairings,
                                self.name, self.n, self.edge_names,
                                self.preferred_tree))

    def all_slots(self):
        """Every slot of every face, in scan order: faces in natural order,
        then slot index."""
        return [(label, k) for label in self.face_order
                for k in range(len(self.faces[label]))]

    def edges(self):
        """The involution as ``(slot, mate, aligned)`` triples, the form the
        constructor takes: one per edge, its earlier slot in scan order first,
        sorted in scan order.  Slots of faces the complex lacks (an invalid
        complex only) sort after every other slot, by label; parts of two
        slots are compared only when their types agree.  A slot that is not
        a hashable pair raises DomainError.
        """
        rank = {label: i for i, label in enumerate(self.face_order)}
        try:
            key = {(label, k): (rank.get(label, len(rank)),
                                type(label).__name__, label,
                                type(k).__name__, k)
                   for label, k in {*self.involution, *(
                       mate for mate, _ in self.involution.values())}}
        except (TypeError, ValueError):  # a slot that is not a hashable pair
            raise DomainError("the involution holds a slot that is not a "
                              "(label, k) pair") from None
        edges = {(slot, mate, aligned) if key[slot] <= key[mate]
                 else (mate, slot, aligned)
                 for slot, (mate, aligned) in self.involution.items()}
        return sorted(edges, key=lambda e: (key[e[0]], key[e[1]], e[2]))

    def slot_endpoints(self, slot):
        """The (tail, head) vertex labels of a slot's directed edge."""
        label, k = slot
        cycle = self.faces[label]
        return cycle[k], cycle[(k + 1) % len(cycle)]

    def same_structure(self, other):
        """Structural equality: cells, involution and pairings.

        Ignores ``name``, ``n`` and presentation metadata, and ignores the
        order in which vertices, faces and pairings were supplied.
        """
        return (set(self.vertex_labels) == set(other.vertex_labels)
                and self.faces == other.faces
                and self.involution == other.involution
                and ({p.name: p for p in self.pairings}
                     == {p.name: p for p in other.pairings}))

    def __repr__(self):
        return (f"<PairedComplex {self.name!r}: {len(self.vertex_labels)} vertices, "
                f"{len(self.faces)} faces, {len(self.pairings)} pairings>")


CellCounts = namedtuple("CellCounts", ["sigma0", "sigma1", "sigma2", "sigma3"])

EdgeOrbit = namedtuple("EdgeOrbit", ["representative", "member_edges", "cycle_word"])
EdgeOrbit.__doc__ = """One edge class of the glued complex.

``member_edges`` holds one canonical slot per polyhedron edge (the lesser of
the edge's two slots in scan order), sorted; ``representative`` is the first
of them.  ``cycle_word`` is the closed word of pairing letters that carries
the representative edge around its class and back to itself.
"""

VertexOrbit = namedtuple("VertexOrbit", ["representative", "member_vertices"])


# The validation violations and, for a valid complex, what _traverse_edges
# returns (the edge classes, each slot's sign and class by slot number, and
# the vertex classes), and the slot numbering: each face label's first slot
# number, and each slot's face number, mate and alignment.
_Analysis = namedtuple("_Analysis", ["violations", "edge_classes", "sign",
                                     "orbit_of", "vertex_classes", "start",
                                     "face_of", "mates", "aligned"],
                       defaults=(None,) * 8)


def _analyse(complex_):
    """The analysis of a complex, computed on first use and kept on it."""
    analysis = complex_._analysis
    if analysis is None:
        violations, numbering = _violations(complex_)
        if violations:
            analysis = _Analysis(tuple(violations))
        else:
            scan, start, face_of, mates, aligned = numbering
            analysis = _Analysis(
                (), *_traverse_edges(complex_, scan, start, mates, aligned),
                start, face_of, mates, aligned)
        object.__setattr__(complex_, "_analysis", analysis)
    return analysis


def validate(complex_):
    """Check every structural invariant; return the list of violations.

    An empty list means the complex is legal; its boundary is then nonempty,
    connected, oriented, and reversed by every pairing.  Violations are data
    (strings naming the offending face/slot/pairing), not exceptions: the analysis
    functions raise :class:`StructureError` themselves when handed a complex
    that does not validate.  The check runs once per complex; each call
    returns a fresh list.
    """
    return list(_analyse(complex_).violations)


def _is_int(value):
    """An int that is not a bool, as a pairing's offset and direction are."""
    return isinstance(value, int) and not isinstance(value, bool)


def _hashable(value):
    """Whether ``value`` can be hashed, as a set member or a dict key must."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _repeats(labels):
    """The labels that occur more than once, in order of first occurrence."""
    return [label for label, count in Counter(labels).items() if count > 1]


def _violations(complex_):
    """The body of :func:`validate`: every violation, in a fixed order, and
    for a valid complex (else None) the slot numbering ``(scan, start,
    face_of, mates, aligned)``.  ``scan`` lists the slots in scan order.
    Face number ``f`` is the ``f``-th of ``face_order``, and its slots are
    numbered consecutively from the sum of the lengths of the faces before
    it; ``start`` is the read-only map from each face label to that first
    number.  The slot -> number dict that the checks read stays here."""
    violations = [] if complex_.faces else ["boundary has no faces"]
    c = complex_
    known_vertices = set(c.vertex_labels)
    violations.extend(f"duplicate vertex label {v}" for v in _repeats(c.vertex_labels))

    unknown = set()  # faces with an entry that is not a vertex label
    for label, cycle in c.faces.items():
        if not cycle:
            violations.append(f"face {label} has no vertices")
            continue
        try:
            if known_vertices.issuperset(cycle):
                continue
        except TypeError:  # an unhashable entry
            pass
        unknown.add(label)
        # vertex labels are str, so an entry of another type is unknown
        violations.extend(f"face {label} references unknown vertex {v}"
                          for v in cycle
                          if not isinstance(v, str) or v not in known_vertices)

    seen_names = set()
    usage = {}
    for pairing in c.pairings:
        if not isinstance(pairing.name, str):
            violations.append(f"pairing name {pairing.name!r} is not a str")
        elif pairing.name in seen_names:
            violations.append(f"duplicate pairing name {pairing.name}")
        else:
            seen_names.add(pairing.name)
        ends = (pairing.source, pairing.target)
        try:
            missing = [f for f in ends if f not in c.faces]
        except TypeError:  # labels are str, so an unhashable one is no face's
            missing = [f for f in ends if not isinstance(f, str)
                       or f not in c.faces]
        for f in missing:
            violations.append(f"pairing {pairing.name} references unknown face {f}")
        if missing:
            continue
        if pairing.source == pairing.target:
            violations.append(f"pairing {pairing.name} pairs face "
                              f"{pairing.source} with itself")
        ls, lt = len(c.faces[pairing.source]), len(c.faces[pairing.target])
        if ls != lt:
            violations.append(f"pairing {pairing.name} joins faces of different "
                              f"lengths ({ls} vs {lt})")
        if not _is_int(pairing.offset):
            violations.append(f"pairing {pairing.name} offset "
                              f"{pairing.offset!r} is not an int")
        elif not 0 <= pairing.offset < lt:
            violations.append(f"pairing {pairing.name} offset {pairing.offset} "
                              f"out of range")
        if not _is_int(pairing.direction) or pairing.direction not in (1, -1):
            violations.append(f"pairing {pairing.name} direction must be +1 or -1")
        for f in (pairing.source, pairing.target):
            usage.setdefault(f, []).append(pairing.name)

    for label in c.faces:
        names = usage.get(label, [])
        if not names:
            violations.append(f"unpaired face {label}")
        elif len(names) > 1:
            violations.append(f"face {label} doubly paired "
                              f"({', '.join(map(str, names))})")

    # number the slots of the faces whose vertices are all known in scan
    # order, and check every slot over flat lists indexed by those numbers
    labels = [label for label in c.face_order if label not in unknown]
    cycles = [c.faces[label] for label in labels]
    scan = [(label, k) for label, cycle in zip(labels, cycles)
            for k in range(len(cycle))]
    number = dict(zip(scan, range(len(scan))))
    entries = list(map(c.involution.get, scan, [(None, None)] * len(scan)))
    try:
        mates = [number.get(mate, -1) for mate, _ in entries]
    except TypeError:  # a mate that cannot be hashed is no numbered slot
        mates = [number.get(mate, -1) if _hashable(mate) else -1
                 for mate, _ in entries]
    aligned = [a for _, a in entries]
    tails = [v for cycle in cycles for v in cycle]
    heads = [v for cycle in cycles for v in cycle[1:] + cycle[:1]]
    # a slot passes when its mate is another numbered slot whose entry
    # points back with the same alignment, along the same two endpoints
    failed = [i for i, (m, a, tail, head)
              in enumerate(zip(mates, aligned, tails, heads))
              if m < 0 or m == i or mates[m] != i or aligned[m] != a
              or (tail != tails[m] or head != heads[m] if a
                  else tail != heads[m] or head != tails[m])]
    absent = {i for i in failed if scan[i] not in c.involution}
    for i in failed:
        slot, m = format_slot(scan[i]), mates[i]
        if i in absent:
            violations.append(f"involution missing entry for {slot}")
        elif m == i:
            violations.append(f"involution has a fixed point at {slot}")
        elif m < 0:
            violations.append(f"involution at {slot} references unknown slot "
                              f"{format_slot(entries[i][0])}")
        elif mates[m] != i or aligned[m] != aligned[i]:
            violations.append(f"involution not symmetric at {slot}")
        else:
            violations.append(f"involution endpoints mismatch at {slot}")
    # every numbered slot with an entry is a key: any further key is unknown
    if len(c.involution) > len(scan) - len(absent):
        violations.extend(f"involution references unknown slot {format_slot(slot)}"
                          for slot in c.involution if slot not in number)

    if violations:
        return violations, None

    # Orientation phase: orient every face so that neighbouring faces traverse
    # each shared edge in opposite directions, then require every pairing to
    # reverse that orientation (the glued space is then orientable).  One walk
    # over the face numbers (orient[f] is 0 until face f is reached) from face
    # 0 must reach every face, as the boundary is connected.
    face_of = [f for f, cycle in enumerate(cycles) for _ in cycle]
    start = MappingProxyType({label: number[label, 0] for label in labels})
    orient = [1] + [0] * (len(labels) - 1)
    queue = [0]
    while queue:
        face = queue.pop()
        sense, first = orient[face], start[labels[face]]
        for i in range(first, first + len(cycles[face])):
            other = face_of[mates[i]]
            needed = -sense if aligned[i] else sense
            if not orient[other]:
                orient[other] = needed
                queue.append(other)
            elif orient[other] != needed:
                violations.append("boundary orientation inconsistent near "
                                  f"face {labels[other]}")
                return violations, None
    if 0 in orient:
        violations.append(f"boundary is not connected: face {labels[orient.index(0)]}"
                          f" is not reached from face {labels[0]}")
        return violations, None
    orient = dict(zip(labels, orient))
    for pairing in c.pairings:
        if pairing.direction * orient[pairing.source] * orient[pairing.target] != -1:
            violations.append(f"pairing {pairing.name} does not reverse orientation")

    return violations, (None if violations
                        else (scan, start, face_of, mates, aligned))


def _require_valid(complex_):
    """The complex's analysis; raises StructureError when it is invalid."""
    analysis = _analyse(complex_)
    if analysis.violations:
        raise StructureError(analysis.violations)
    return analysis


def _orbit_data(complex_):
    """The edge-class traversal by slot number.

    Returns ``(orbits, start, sign, orbit_of)``: the tuple of edge classes,
    the read-only map from each face label to its first slot number (slot
    ``k`` of face ``f`` has number ``start[f] + k``), and two tuples indexed
    by slot number: ``sign[i]`` +1/-1 as the traversal first crossed the
    slot along or against its stored direction, and ``orbit_of[i]`` the
    position of the slot's class in ``orbits``.
    """
    analysis = _require_valid(complex_)
    return (analysis.edge_classes, analysis.start, analysis.sign,
            analysis.orbit_of)


def _traverse_edges(complex_, scan, start, mates, aligned):
    """Traverse every edge class of a valid complex (see :func:`_orbit_data`).

    The traversal starts at the scan-order representative, repeatedly applies
    the pairing of the current slot's face (the inverse pairing when that face
    is a target) and then crosses the boundary involution, recording one
    pairing letter per step until the starting edge reappears.  It walks the
    slot numbering that validation built (see :func:`_violations`): crossing
    the involution from slot ``i`` reaches ``mates[i]`` and keeps the sense
    when ``aligned[i]``.  Each slot's pairing step is listed beforehand, in
    one pass over the pairings that also joins each source vertex to its
    image in a union-find over vertex numbers (positions in natural order).
    ``scan`` names the numbered slots in the classes.  Returns the tuple of
    edge classes, the tuples ``sign`` and ``orbit_of``, and the tuple of
    vertex classes.
    """
    from .group_theory.words import _word

    c = complex_
    total = len(scan)
    number = dict(zip(c.vertex_order, range(len(c.vertex_order))))
    parent = list(range(len(c.vertex_order)))
    # the pairing of slot i's face (its inverse on a target face) carries it
    # to image[i], multiplies the sense by flip[i] and reads letter[i]
    image, flip, letter = [0] * total, [0] * total, [None] * total
    for p in c.pairings:
        source, target = start[p.source], start[p.target]
        cycle, partner = c.faces[p.source], c.faces[p.target]
        length, offset, direction = len(cycle), p.offset, p.direction
        back = direction == -1
        pair_letters = (str(p.name), 1), (str(p.name), -1)
        for k in range(length):
            # vertex k goes to vertex j: slot k runs along slot j, or
            # backwards along slot j - 1
            j = (offset + direction * k) % length
            _join(parent, number[cycle[k]], number[partner[j]])
            j = target + (j - back) % length
            image[source + k], image[j] = j, source + k
            flip[source + k] = flip[j] = direction
            letter[source + k], letter[j] = pair_letters

    orbits, sign, orbit_of = [], [0] * total, [-1] * total
    for rep in range(total):
        if sign[rep]:
            continue
        index = len(orbits)
        other = mates[rep]
        sign[rep], sign[other] = 1, 1 if aligned[rep] else -1
        orbit_of[rep] = orbit_of[other] = index
        # each edge is listed by its slot that comes first in scan order
        members = [rep if rep < other else other]
        letters = []
        slot, sense = rep, 1
        while True:
            letters.append(letter[slot])
            sense *= flip[slot]
            slot = image[slot]
            other = mates[slot]
            if sign[slot] and orbit_of[slot] == index:
                if (slot if slot < other else other) != members[0]:
                    raise StructureError([f"edge class at {format_slot(scan[rep])} "
                                          "folds onto itself"])
                break
            sign[slot] = sense
            sense = sign[other] = sense if aligned[slot] else -sense
            orbit_of[slot] = orbit_of[other] = index
            members.append(slot if slot < other else other)
            slot = other
        members.sort()
        orbits.append(EdgeOrbit(scan[rep], tuple([scan[i] for i in members]),
                                _word(tuple(letters))))

    # walking the vertices in natural order lists each class, and the
    # classes, by their natural-least member
    classes = {}
    for v in c.vertex_order:
        classes.setdefault(_find(parent, number[v]), []).append(v)
    return tuple(orbits), tuple(sign), tuple(orbit_of), tuple(
        VertexOrbit(members[0], tuple(members)) for members in classes.values())


def edge_orbits(complex_):
    """The edge classes of the glued complex, sorted by representative.

    Each class comes with its closed cycle word of pairing letters.  Raises
    StructureError when the complex does not validate.
    """
    return list(_require_valid(complex_).edge_classes)


def vertex_orbits(complex_):
    """Vertex classes of the glued complex (pairings generate the relation)."""
    return list(_require_valid(complex_).vertex_classes)


def cell_counts(complex_):
    """Cell census (sigma0, sigma1, sigma2, sigma3) of the glued complex.

    sigma3 is 1 (validation requires one connected boundary, so a single
    polyhedron), sigma2 the number of face pairs, sigma1 the number of edge
    classes, sigma0 the number of vertex classes.
    """
    analysis = _require_valid(complex_)
    return CellCounts(len(analysis.vertex_classes), len(analysis.edge_classes),
                      len(complex_.faces) // 2, 1)


def is_manifold(complex_):
    """Certify manifoldness of the glued complex.

    For a face-pairing quotient of a single polyhedron the quotient is a
    closed 3-manifold exactly when its Euler characteristic vanishes; the
    returned pair is (chi == 0, chi).
    """
    counts = cell_counts(complex_)
    chi = counts.sigma0 - counts.sigma1 + counts.sigma2 - counts.sigma3
    return chi == 0, chi
