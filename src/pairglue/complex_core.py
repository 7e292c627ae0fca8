"""Face-paired polyhedral complexes and their cell-orbit analysis.

A PairedComplex models the boundary sphere of a single polyhedron cut into
polygonal faces, together with a pairing of those faces.  Gluing each face to
its partner produces a closed pseudo-manifold; the classes of this module
compute the cells of that quotient (vertex classes, edge classes with their
cycle words, face pairs) and certify manifoldness through the Euler
characteristic.

Complexes and pairings are immutable.  A complex fixes the natural order of
its face and vertex labels once, when it is constructed, and every scan
reads that order.  A complex is analysed once, on first use: its validation
violations, edge-class traversal and vertex classes are kept on it, and the
analysis functions return fresh lists or read-only views.

Edges are positional throughout: slot ``k`` of a face is the directed edge
from its ``k``-th boundary vertex to the next one, and a slot is addressed as
``(face_label, k)``.  Vertex labels play no role in identification; they may
repeat along a single face (small complexes have monogons and loops).
"""

import re
from collections import namedtuple
from types import MappingProxyType

from .errors import StructureError

__all__ = ["CellCounts", "EdgeOrbit", "PairedComplex", "Pairing",
           "VertexOrbit", "cell_counts", "edge_orbits", "is_manifold",
           "validate", "vertex_orbits"]

_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(label):
    """Sort key that orders embedded integers numerically.

    >>> sorted(["P10", "P2", "Q1"], key=natural_key)
    ['P2', 'P10', 'Q1']
    """
    parts = _DIGIT_RUN.split(label)  # the digit runs are the odd parts
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def format_slot(slot):
    """Render a slot as ``FACE.k``, the form used in documents and reports."""
    return f"{slot[0]}.{slot[1]}"


class _Immutable:
    """Base of the value classes: slots are set once, in ``__init__``."""

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


class Pairing(_Immutable):
    """An identification of one face with another.

    The correspondence is cyclic-affine on slot indices: vertex ``j`` of the
    source goes to vertex ``(offset + direction*j) mod L`` of the target,
    where ``direction`` is +1 or -1.  Consequently slot ``k`` of the source is
    carried to slot ``(offset + k) mod L`` read forwards when direction is +1,
    and to slot ``(offset - k - 1) mod L`` read backwards when direction is -1.
    This is fully general for polygon-to-polygon identifications.
    """

    __slots__ = ("name", "source", "target", "offset", "direction")

    def __init__(self, name, source, target, offset=0, direction=1):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "direction", direction)

    def __reduce__(self):
        return (Pairing, (self.name, self.source, self.target, self.offset,
                          self.direction))

    def __repr__(self):
        return (f"Pairing({self.name!r}, {self.source!r}, {self.target!r}, "
                f"offset={self.offset}, direction={self.direction})")

    def __eq__(self, other):
        return (isinstance(other, Pairing)
                and (self.name, self.source, self.target, self.offset,
                     self.direction)
                == (other.name, other.source, other.target, other.offset,
                    other.direction))

    def __hash__(self):
        return hash((self.name, self.source, self.target, self.offset,
                     self.direction))

    def vertex_image(self, j, length):
        return (self.offset + self.direction * j) % length

    def image_directed(self, k, sense, length):
        """Image of source slot ``k`` traversed with ``sense`` (+1 forward)."""
        if self.direction == 1:
            return (self.offset + k) % length, sense
        return (self.offset - k - 1) % length, -sense

    def preimage_directed(self, k, sense, length):
        """Directed preimage of target slot ``k``; inverse of image_directed."""
        if self.direction == 1:
            return (k - self.offset) % length, sense
        return (self.offset - k - 1) % length, -sense


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
    what the error contract requires.
    """

    __slots__ = ("vertex_labels", "faces", "involution", "pairings", "name",
                 "n", "edge_names", "preferred_tree", "face_order",
                 "vertex_order", "_analysis", "__weakref__")

    def __init__(self, vertex_labels, faces, involution, pairings,
                 name="complex", n=None, edge_names=(), preferred_tree=()):
        if hasattr(involution, "items"):
            mates = {slot: (tuple(mate), bool(aligned))
                     for slot, (mate, aligned) in involution.items()}
        else:
            mates = {}
            for a, b, aligned in involution:
                a, b = tuple(a), tuple(b)
                mates[a] = (b, bool(aligned))
                mates[b] = (a, bool(aligned))
        faces = {label: tuple(vertices) for label, vertices in dict(faces).items()}
        object.__setattr__(self, "vertex_labels", tuple(vertex_labels))
        object.__setattr__(self, "faces", MappingProxyType(faces))
        object.__setattr__(self, "involution", MappingProxyType(mates))
        object.__setattr__(self, "pairings", tuple(pairings))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_names", tuple(edge_names))
        object.__setattr__(self, "preferred_tree", tuple(preferred_tree))
        object.__setattr__(self, "face_order",
                           tuple(sorted(faces, key=natural_key)))
        object.__setattr__(self, "vertex_order",
                           tuple(sorted(self.vertex_labels, key=natural_key)))
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
        complex only) sort after every other slot, by label.
        """
        rank = {label: i for i, label in enumerate(self.face_order)}

        def key(slot):
            return rank.get(slot[0], len(rank)), slot

        edges = set()
        for slot, (mate, aligned) in self.involution.items():
            a, b = sorted((slot, mate), key=key)
            edges.add((a, b, aligned))
        return sorted(edges, key=lambda e: (key(e[0]), key(e[1]), e[2]))

    def slot_endpoints(self, slot):
        """The (tail, head) vertex labels of a slot's directed edge."""
        label, k = slot
        cycle = self.faces[label]
        return cycle[k], cycle[(k + 1) % len(cycle)]

    def pairing_by_face(self):
        """Map each face label to ``(pairing, is_source)``.

        Faces appearing in several pairings keep the first occurrence; that
        situation is reported by validate() and rejected before analysis.
        """
        table = {}
        for pairing in self.pairings:
            table.setdefault(pairing.source, (pairing, True))
            table.setdefault(pairing.target, (pairing, False))
        return table

    def same_structure(self, other):
        """Structural equality: cells, involution and pairings.

        Ignores ``name``, ``n`` and presentation metadata, and ignores the
        order in which vertices, faces and pairings were supplied.
        """
        if set(self.vertex_labels) != set(other.vertex_labels):
            return False
        if self.faces != other.faces:
            return False
        if self.involution != other.involution:
            return False
        return ({p.name: p for p in self.pairings}
                == {p.name: p for p in other.pairings})

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


# The validation violations and, for a valid complex, the edge-class
# traversal (see _orbit_data) and the tuple of vertex classes.
_Analysis = namedtuple("_Analysis",
                       ["violations", "orbit_data", "vertex_classes"])


def _analyse(complex_):
    """The analysis of a complex, computed on first use and kept on it."""
    analysis = complex_._analysis
    if analysis is None:
        violations = tuple(_violations(complex_))
        if violations:
            analysis = _Analysis(violations, None, None)
        else:
            analysis = _Analysis(violations, _traverse_edges(complex_),
                                 _vertex_classes(complex_))
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


def _violations(complex_):
    """The body of :func:`validate`: every violation, in a fixed order."""
    violations = [] if complex_.faces else ["boundary has no faces"]
    c = complex_
    known_vertices = set(c.vertex_labels)

    for label, cycle in c.faces.items():
        if not cycle:
            violations.append(f"face {label} has no vertices")
        for v in cycle:
            if v not in known_vertices:
                violations.append(f"face {label} references unknown vertex {v}")

    seen_names = set()
    usage = {}
    for pairing in c.pairings:
        if pairing.name in seen_names:
            violations.append(f"duplicate pairing name {pairing.name}")
        seen_names.add(pairing.name)
        missing = [f for f in (pairing.source, pairing.target) if f not in c.faces]
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
            violations.append(f"face {label} doubly paired ({', '.join(names)})")

    scan = [(label, k) for label in c.face_order
            if all(v in known_vertices for v in c.faces[label])
            for k in range(len(c.faces[label]))]
    slots = set(scan)
    for slot in scan:
        entry = complex_.involution.get(slot)
        if entry is None:
            violations.append(f"involution missing entry for {format_slot(slot)}")
            continue
        mate, aligned = entry
        if mate == slot:
            violations.append(f"involution has a fixed point at {format_slot(slot)}")
            continue
        if mate not in slots:
            violations.append(f"involution at {format_slot(slot)} references "
                              f"unknown slot {format_slot(mate)}")
            continue
        back = complex_.involution.get(mate)
        if back != (slot, aligned):
            violations.append(f"involution not symmetric at {format_slot(slot)}")
            continue
        tail, head = c.slot_endpoints(slot)
        mtail, mhead = c.slot_endpoints(mate)
        expected = (mtail, mhead) if aligned else (mhead, mtail)
        if (tail, head) != expected:
            violations.append(f"involution endpoints mismatch at {format_slot(slot)}")
    for slot in complex_.involution:
        if slot not in slots:
            violations.append(f"involution references unknown slot {format_slot(slot)}")

    if violations:
        return violations

    # Orientation phase: orient every face so that neighbouring faces traverse
    # each shared edge in opposite directions, then require every pairing to
    # reverse that orientation (the glued space is then orientable).  One walk
    # must reach every face, as the boundary is connected.
    orient = {}
    for start in c.face_order:
        if start in orient:
            continue
        if orient:
            violations.append(f"boundary is not connected: face {start} is "
                              f"not reached from face {next(iter(orient))}")
            return violations
        orient[start] = 1
        queue = [start]
        while queue:
            face = queue.pop()
            for k in range(len(c.faces[face])):
                mate, aligned = c.involution[(face, k)]
                needed = -orient[face] if aligned else orient[face]
                if mate[0] not in orient:
                    orient[mate[0]] = needed
                    queue.append(mate[0])
                elif orient[mate[0]] != needed:
                    violations.append("boundary orientation inconsistent near "
                                      f"face {mate[0]}")
                    return violations
    for pairing in c.pairings:
        if pairing.direction * orient[pairing.source] * orient[pairing.target] != -1:
            violations.append(f"pairing {pairing.name} does not reverse orientation")

    return violations


def _require_valid(complex_):
    """The complex's analysis; raises StructureError when it is invalid."""
    analysis = _analyse(complex_)
    if analysis.violations:
        raise StructureError(analysis.violations)
    return analysis


def _orbit_data(complex_):
    """The edge-class traversal; the workhorse behind edge_orbits.

    Returns ``(orbits, slot_sign, orbit_index)``: the tuple of edge classes
    and two read-only mappings, ``slot_sign[slot]`` +1/-1 as the traversal
    first crossed the slot along or against its stored direction, and
    ``orbit_index[slot]`` the position of the slot's class in ``orbits``.
    """
    return _require_valid(complex_).orbit_data


def _traverse_edges(complex_):
    """Traverse every edge class of a valid complex (see :func:`_orbit_data`).

    The traversal starts at the scan-order representative, repeatedly applies
    the pairing of the current slot's face (the inverse pairing when that face
    is a target) and then crosses the boundary involution, recording one
    pairing letter per step until the starting edge reappears.
    """
    from .group_theory.words import Word

    c = complex_
    by_face = c.pairing_by_face()

    def pairing_move(slot, sense):
        face, k = slot
        pairing, is_source = by_face[face]
        length = len(c.faces[face])
        if is_source:
            k2, sense2 = pairing.image_directed(k, sense, length)
            return (pairing.target, k2), sense2, (pairing.name, 1)
        k2, sense2 = pairing.preimage_directed(k, sense, length)
        return (pairing.source, k2), sense2, (pairing.name, -1)

    position = {slot: i for i, slot in enumerate(c.all_slots())}

    def edge_of(slot):
        """The slot of the edge through ``slot`` that comes first in scan order."""
        mate = c.involution[slot][0]
        return slot if position[slot] < position[mate] else mate

    orbits = []
    slot_sign = {}
    orbit_index = {}
    for rep in position:
        if rep in slot_sign:
            continue
        index = len(orbits)

        def record(slot, sense):
            mate, aligned = c.involution[slot]
            slot_sign[slot] = sense
            slot_sign[mate] = sense if aligned else -sense
            orbit_index[slot] = index
            orbit_index[mate] = index
            return edge_of(slot)

        members = [record(rep, 1)]
        letters = []
        slot, sense = rep, 1
        while True:
            slot, sense, letter = pairing_move(slot, sense)
            letters.append(letter)
            if slot in slot_sign and orbit_index[slot] == index:
                if edge_of(slot) != members[0]:
                    raise StructureError([f"edge class at {format_slot(rep)} "
                                          "folds onto itself"])
                break
            members.append(record(slot, sense))
            mate, aligned = c.involution[slot]
            slot, sense = mate, sense if aligned else -sense
        members.sort(key=position.__getitem__)
        orbits.append(EdgeOrbit(representative=rep, member_edges=tuple(members),
                                cycle_word=Word(letters)))
    return (tuple(orbits), MappingProxyType(slot_sign),
            MappingProxyType(orbit_index))


def edge_orbits(complex_):
    """The edge classes of the glued complex, sorted by representative.

    Each class comes with its closed cycle word of pairing letters.  Raises
    StructureError when the complex does not validate.
    """
    return list(_orbit_data(complex_)[0])


def vertex_orbits(complex_):
    """Vertex classes of the glued complex (pairings generate the relation)."""
    return list(_require_valid(complex_).vertex_classes)


def _vertex_classes(complex_):
    """Compute the vertex classes of a valid complex by union-find."""
    c = complex_
    parent = {v: v for v in c.vertex_labels}
    for pairing in c.pairings:
        source = c.faces[pairing.source]
        target = c.faces[pairing.target]
        for j, v in enumerate(source):
            _join(parent, v, target[pairing.vertex_image(j, len(source))])

    # walking the vertices in natural order lists each class, and the
    # classes, by their natural-least member
    classes = {}
    for v in c.vertex_order:
        classes.setdefault(_find(parent, v), []).append(v)
    return tuple(VertexOrbit(representative=members[0],
                             member_vertices=tuple(members))
                 for members in classes.values())


def cell_counts(complex_):
    """Cell census (sigma0, sigma1, sigma2, sigma3) of the glued complex.

    sigma3 is 1 (validation requires one connected boundary, so a single
    polyhedron), sigma2 the number of face pairs, sigma1 the number of edge
    classes, sigma0 the number of vertex classes.
    """
    return CellCounts(sigma0=len(vertex_orbits(complex_)),
                      sigma1=len(edge_orbits(complex_)),
                      sigma2=len(complex_.faces) // 2,
                      sigma3=1)


def is_manifold(complex_):
    """Certify manifoldness of the glued complex.

    For a face-pairing quotient of a single polyhedron the quotient is a
    closed 3-manifold exactly when its Euler characteristic vanishes; the
    returned pair is (chi == 0, chi).
    """
    counts = cell_counts(complex_)
    chi = counts.sigma0 - counts.sigma1 + counts.sigma2 - counts.sigma3
    return chi == 0, chi
