"""Cyclic symmetries of paired complexes, their quotients and singular sets.

An automorphism here is a relabelling of the polyhedron that preserves every
piece of structure at once: faces map to faces matching the vertex images,
the boundary involution commutes with the induced slot map, and each pairing
is carried onto another pairing.  Only the vertex permutation is supplied;
the rest is forced over the connected boundary, without recursion, and checked.
The extension walks the slot numbers of the complex's analysis, and names
slots as ``(face, k)`` tuples only in its results.

Quotients fold each cell orbit to a single cell.  A face fixed setwise by
part of the group folds to a shorter polygon (its length divided by the
rotation the stabilizer induces), which is how an n-gon lid descends to the
lid of the smaller family member.  A verified automorphism commutes with the
involution and its alignment and carries pairings onto pairings, so every
identification descends: the quotient reads each representative face's own
slots and one member of each pairing orbit.  A quotient that is no paired
complex raises :class:`pairglue.errors.UnsupportedQuotientError`: an
automorphism that reverses an edge folds it onto itself (a half-turn of a
tetrahedron does).  The quotient refuses to guess.

:func:`singular_components` derives the collapsed edge classes of a quotient
from the cells of any automorphism and its base complex.  It refuses a
quotient without the structure of the base, and a covering that is not free
off the branching locus.
:func:`singularity_report` wraps it for a family member and its rotation,
and appends the rotation-axis component from the construction.
"""

from collections import namedtuple
from itertools import accumulate
from math import gcd, lcm
from types import MappingProxyType

from .complex_core import (
    PairedComplex,
    Pairing,
    _Immutable,
    _hashable,
    _orbit_data,
    _require_valid,
    edge_orbits,
    format_slot,
    natural_key,
    validate,
)
from .errors import DomainError, StructureError, UnsupportedQuotientError
from .families import _check_n, _index_shift, build_family

__all__ = ["AutomorphismCheck", "ComplexAutomorphism", "SingularComponent",
           "SingularityReport", "quotient_complex", "rotation",
           "singular_components", "singularity_report", "strongly_cyclic",
           "verify_automorphism"]


def _cycles(mapping, starts):
    """The cycles of a permutation, each from its first member in ``starts``."""
    seen = set()
    for start in starts:
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = mapping[x]
        if cycle:
            yield cycle


def _vertex_dict(vertex_map):
    """A vertex map copied into a dict; DomainError unless it is a mapping
    (or an iterable of pairs) of hashable labels."""
    try:
        vertex_map = dict(vertex_map)
    except (TypeError, ValueError):
        raise DomainError(
            f"vertex map is not a mapping: {vertex_map!r}") from None
    try:
        set(vertex_map.values())
    except TypeError:
        bad = next(v for v in vertex_map.values() if not _hashable(v))
        raise DomainError(f"vertex map label {bad!r} cannot be hashed") from None
    return vertex_map


def _placements(cycles, image, faces):
    """Each ``(g, r)``, ``g`` among ``faces`` in order and ``r`` ascending,
    whose cycle read from slot ``r`` is ``image``."""
    first = image[0]
    return [(g, r) for g in faces for cycle in (cycles[g],)
            if len(cycle) == len(image) and first in cycle
            for r, v in enumerate(cycle)
            if v == first and cycle[r:] + cycle[:r] == image]


def _forced_placements(numbering, image_of, pairings, placement):
    """Every face's placement forced by placing face 0 at ``placement``, or
    None.

    Faces and slots are numbers: ``numbering`` holds the face cycles in
    natural order, the number of each face's first slot (from the analysis's
    ``start``), and the analysis's ``face_of``, ``mates`` and ``aligned``
    lists (see ``_violations``).  A placement ``(g, r)`` sends slot ``k`` of
    a face to slot ``k + r`` of face ``g``.

    The mate of each slot goes to the mate of the slot's image, with the same
    alignment, and the face so placed must read, from the forced slot, the
    image ``image_of(face)`` of its own cycle.  Pairings, keyed by the
    numbers of their source and target faces, go onto pairings.  The images
    are then closed under the involution, so on a connected boundary they
    are all the faces, each once.
    """
    cycles, starts, face_of, mates, aligned = numbering
    place = [None] * len(cycles)
    place[0] = placement
    stack = [0]
    while stack:
        face = stack.pop()
        g, r = place[face]
        start, length, g_start = starts[face], len(cycles[face]), starts[g]
        for k in range(length):
            i, j = start + k, g_start + (k + r) % length
            if aligned[i] != aligned[j]:
                return None
            m, m_image = mates[i], mates[j]
            mface, mg = face_of[m], face_of[m_image]
            cycle = cycles[mg]
            rot = (m_image - starts[mg] - m + starts[mface]) % len(cycle)
            if place[mface] is None:
                if cycle[rot:] + cycle[:rot] != image_of(mface):
                    return None
                place[mface] = (mg, rot)
                stack.append(mface)
            elif place[mface] != (mg, rot):
                return None
    for (source, target), p in pairings.items():
        gs, rs = place[source]
        gt, rt = place[target]
        image = pairings.get((gs, gt))
        if (image is None or image.direction != p.direction
                or image.offset != (p.offset - p.direction * rs + rt)
                % len(cycles[gt])):
            return None
    return place


class ComplexAutomorphism(_Immutable):
    """A verified symmetry of a paired complex, made from its vertex map.

    ``ComplexAutomorphism(domain, vertex_map)`` extends a permutation of the
    vertex labels of a valid complex to the whole structure, or raises
    StructureError, so an instance is an automorphism by construction.  The
    natural-least face's candidate placements ``(g, r)`` are the faces ``g``
    whose cycle read from slot ``r`` is the image of its own, in scan order;
    the first whose forced placements survive (see
    :func:`_forced_placements`, which checks each forced face against the
    image of its cycle) gives the automorphism.  Only when none survives are
    the faces scanned, in natural order, for one whose image matches no face.
    The propagation reads each face's first slot number, and each slot's
    face number, mate and alignment, from the domain's analysis.

    Everything else is derived from the vertex map: the face map with its
    per-face rotation offsets, the induced permutation of pairing names, the
    element's order (the lcm of the vertex cycles and, for each face orbit,
    its length times the face length over the folded length), and the face
    transport of the cyclic group it spans (each face's orbit
    representative, the natural-least member; the slot rotation carrying the
    representative onto the face; and the representative's folded length),
    which :meth:`project` reads.  The induced slot map is built on each read
    of :attr:`slot_map`.  Instances are immutable, their maps are read-only
    (``MappingProxyType``), and copies and pickles are rebuilt, and so
    checked again, from ``(domain, vertex_map)``.  A vertex map that is not
    a mapping of hashable labels raises DomainError.
    """

    __slots__ = ("domain", "vertex_map", "face_map", "face_rotation",
                 "pairing_map", "order", "face_transport")

    def __init__(self, domain, vertex_map):
        c = domain
        analysis = _require_valid(c)
        vertex_map = _vertex_dict(vertex_map)
        labels = set(c.vertex_labels)
        if set(vertex_map) != labels or set(vertex_map.values()) != labels:
            raise StructureError(
                ["vertex map is not a permutation of the vertex labels"])

        faces = c.face_order
        cycles = [c.faces[label] for label in faces]
        numbering = (cycles, list(map(analysis.start.__getitem__, faces)),
                     analysis.face_of, analysis.mates, analysis.aligned)
        index = dict(zip(faces, range(len(faces))))
        pairings = {(index[p.source], index[p.target]): p for p in c.pairings}

        def image_of(face):
            return tuple(map(vertex_map.__getitem__, cycles[face]))

        for placement in _placements(cycles, image_of(0), range(len(cycles))):
            place = _forced_placements(numbering, image_of, pairings,
                                       placement)
            if place is not None:
                break
        else:
            faces_at = {}  # the faces through each vertex, in natural order
            for g, cycle in enumerate(cycles):
                for v in dict.fromkeys(cycle):
                    faces_at.setdefault(v, []).append(g)
            for face, label in enumerate(faces):
                image = image_of(face)
                if not _placements(cycles, image, faces_at.get(image[0], ())):
                    raise StructureError([f"no face matches the image of face "
                                          f"{label} under the vertex map"])
            raise StructureError(
                ["vertex map does not extend to an automorphism of the paired complex"])

        face_map = {f: faces[g] for f, (g, _) in zip(faces, place)}
        face_rotation = {f: r for f, (_, r) in zip(faces, place)}
        pairing_map = {p.name: pairings[place[source][0], place[target][0]].name
                       for (source, target), p in pairings.items()}
        face_transport, orders = {}, []
        for cycle in _cycles([g for g, _ in place], range(len(place))):
            rots = list(accumulate((place[f][1] for f in cycle), initial=0))
            length = len(cycles[cycle[0]])
            # the last sum is the rotation the orbit-stabilizing power
            # induces on the representative
            folded = gcd(length, rots.pop() % length)
            orders.append(len(cycle) * length // folded)
            face_transport.update((faces[face], (faces[cycle[0]], rot, folded))
                                  for face, rot in zip(cycle, rots))

        object.__setattr__(self, "domain", c)
        object.__setattr__(self, "vertex_map", MappingProxyType(vertex_map))
        object.__setattr__(self, "face_map", MappingProxyType(face_map))
        object.__setattr__(self, "face_rotation", MappingProxyType(face_rotation))
        object.__setattr__(self, "pairing_map", MappingProxyType(pairing_map))
        object.__setattr__(self, "order", lcm(
            *orders, *map(len, _cycles(vertex_map, vertex_map))))
        object.__setattr__(self, "face_transport",
                           MappingProxyType(face_transport))

    @property
    def slot_map(self):
        """The induced slot map, ``(f, k)`` to ``(g, k')``, read-only."""
        faces = self.domain.faces
        return MappingProxyType({
            (f, k): (g, (k + self.face_rotation[f]) % len(faces[f]))
            for f, g in self.face_map.items() for k in range(len(faces[f]))})

    def __reduce__(self):
        return (ComplexAutomorphism, (self.domain, dict(self.vertex_map)))

    def __repr__(self):
        return (f"<ComplexAutomorphism of {self.domain.name!r} "
                f"order {self.order}>")

    def project(self, slot):
        """The slot of the quotient that ``slot`` of the domain descends to."""
        face, k = slot
        rep, rot, folded = self.face_transport[face]
        return (rep, (k - rot) % folded)


class AutomorphismCheck(namedtuple("AutomorphismCheck",
                                   ["valid", "order", "reason"])):
    """Outcome of verify_automorphism; truthy exactly when ``valid`` is."""

    __slots__ = ()

    def __bool__(self):
        return self.valid


def verify_automorphism(complex_, automorphism):
    """Check a claimed symmetry of a complex and report its exact order.

    ``automorphism`` is a ComplexAutomorphism or a bare mapping of vertex
    labels.  Vertex labels outside the complex raise DomainError.  The check
    fails (valid=False, with a reason) when the map is not a permutation or
    does not extend to face, involution and pairing structure; otherwise
    valid is True and ``order`` is the element's exact order.

    >>> from .families import build_m24
    >>> verify_automorphism(build_m24(5), rotation("m24", 5))
    AutomorphismCheck(valid=True, order=5, reason='')
    """
    vertex_map = (automorphism.vertex_map
                  if isinstance(automorphism, ComplexAutomorphism)
                  else _vertex_dict(automorphism))
    unknown = (set(vertex_map) | set(vertex_map.values())) - set(
        complex_.vertex_labels)
    if unknown:  # labels that are not str are named by repr, after the rest
        raise DomainError("vertex map uses labels not in the complex: " + " ".join(
            sorted((v for v in unknown if isinstance(v, str)), key=natural_key)
            + sorted(repr(v) for v in unknown if not isinstance(v, str))))
    try:
        order = ComplexAutomorphism(complex_, vertex_map).order
    except StructureError as exc:
        return AutomorphismCheck(False, None, str(exc))
    return AutomorphismCheck(True, order, "")


def rotation(family, n, step=1):
    """The index-shift symmetry of a family member: every X_i goes to X_{i+step}.

    ``step`` is the int 1 or 2, and 2 only for even n (so that the index
    classes mod step close up); any other step raises DomainError.  The
    returned automorphism has order n / gcd(n, step).

    >>> rotation("m24", 3).order
    3
    """
    _check_n(n)
    if type(step) is not int or step not in (1, 2):
        raise DomainError(f"rotation step must be 1 or 2, got {step!r}")
    if step == 2 and n % 2:
        raise DomainError("rotation step 2 requires even n")
    auto = ComplexAutomorphism(build_family(family, n), _index_shift(n, step))
    expected = n // gcd(n, step)
    if auto.order != expected:
        raise StructureError(
            [f"rotation has order {auto.order}, expected {expected}"])
    return auto


def quotient_complex(complex_, automorphism):
    """The quotient of a complex by the cyclic group an automorphism spans.

    ``automorphism`` is a ComplexAutomorphism or a bare vertex mapping; an
    instance built on ``complex_`` itself is used as it is, anything else is
    verified as ``ComplexAutomorphism(complex_, vertex_map)``.  Cell orbits
    become single cells and setwise-fixed faces fold to shorter polygons.
    The verified automorphism commutes with the involution and carries
    pairings onto pairings with transported offsets, so each representative
    face's own slots give the quotient's involution, and each pairing orbit
    descends from its natural-least member.  A quotient that ``validate``
    rejects raises UnsupportedQuotientError.
    """
    auto = automorphism
    if not (isinstance(auto, ComplexAutomorphism) and auto.domain is complex_):
        auto = ComplexAutomorphism(complex_, (
            auto.vertex_map if isinstance(auto, ComplexAutomorphism) else auto))
    c = complex_
    transport = auto.face_transport

    # each orbit is represented by its natural-least member, so the
    # representatives taken in natural order are the quotient's labels
    vrep_of = {v: cycle[0] for cycle in _cycles(auto.vertex_map, c.vertex_order)
               for v in cycle}
    labels_q = [v for v, rep in vrep_of.items() if v == rep]

    faces_q = {f: tuple(vrep_of[v] for v in c.faces[f][:transport[f][2]])
               for f in c.face_order if transport[f][0] == f}
    involution_q = {(f, k): (auto.project(mate), aligned)
                    for f, cycle in faces_q.items() for k in range(len(cycle))
                    for mate, aligned in (c.involution[f, k],)}

    by_name = {p.name: p for p in c.pairings}
    pairings_q = []
    for names in _cycles(auto.pairing_map, by_name):
        p = by_name[min(names, key=natural_key)]
        # the offset is taken mod the folded length, which divides the
        # face length
        source_rep, source_rot, length_q = transport[p.source]
        target_rep, target_rot, _ = transport[p.target]
        pairings_q.append(Pairing(
            p.name, source_rep, target_rep,
            (p.offset + p.direction * source_rot - target_rot) % length_q,
            p.direction))

    quotient = PairedComplex(labels_q, faces_q, involution_q, pairings_q,
                             name=f"{c.name}/Z{auto.order}")
    problems = validate(quotient)
    if problems:
        raise UnsupportedQuotientError(
            "quotient is not a valid paired complex: " + "; ".join(problems))
    return quotient


SingularComponent = namedtuple(
    "SingularComponent",
    ["kind", "branching_index", "upstairs_orbit_size",
     "downstairs_class", "downstairs_size"])
SingularComponent.__doc__ = """One component of the quotient's singular set.

``kind`` is ``"collapsed-edge-class"`` for a downstairs edge circle over
which the covering branches (``downstairs_class`` names its representative
slot) or ``"rotation-axis"`` for the axis circle of the rotation, which has
no cells downstairs.  ``upstairs_orbit_size`` counts the edge classes lying
over the component upstairs.
"""

SingularityReport = namedtuple(
    "SingularityReport",
    ["base_family", "base_n", "covering_degree", "components",
     "total_space_n", "note"])
SingularityReport.__doc__ = """Branching data of a cyclic quotient.

The member of family ``base_family`` with parameter ``total_space_n`` covers
the member with parameter ``base_n`` with degree ``covering_degree``,
branched over the listed components.
"""

_AXIS_NOTE = ("rotation-axis component listed from the construction of the "
              "symmetry (the axis through the two polygon lids), not "
              "recomputed from the cell structure")


def singular_components(automorphism, base):
    """The edge classes of a cyclic quotient over which the covering branches.

    The domain of ``automorphism`` is quotiented by the group it spans.  Each
    edge class downstairs whose upstairs classes are longer circles is a
    ``collapsed-edge-class`` component, with index equal to the length ratio.
    The group permutes the upstairs classes over a downstairs class
    transitively, so they share one length, a multiple of the downstairs
    one.  UnsupportedQuotientError is raised unless the quotient has the
    structure of ``base`` and every class is covered freely off the
    branching locus.
    """
    auto, upstairs = automorphism, automorphism.domain
    quotient = quotient_complex(upstairs, auto)
    if not quotient.same_structure(base):
        raise UnsupportedQuotientError(
            f"quotient of {upstairs.name} by an automorphism of order "
            f"{auto.order} does not have the structure of the base "
            f"{base.name}")
    down_orbits, start, _, orbit_of = _orbit_data(quotient)

    over = {}
    for orbit in edge_orbits(upstairs):
        face, k = auto.project(orbit.representative)
        over.setdefault(orbit_of[start[face] + k], []).append(orbit)

    components = []
    for i, down_orbit in enumerate(down_orbits):
        preimages = over[i]
        down_size = len(down_orbit.member_edges)
        ratio = len(preimages[0].member_edges) // down_size
        if ratio * len(preimages) != auto.order:
            raise UnsupportedQuotientError(
                f"edge class at {format_slot(down_orbit.representative)} "
                "is not covered freely off the branching locus")
        if ratio > 1:
            components.append(SingularComponent(
                kind="collapsed-edge-class", branching_index=ratio,
                upstairs_orbit_size=len(preimages),
                downstairs_class=down_orbit.representative,
                downstairs_size=down_size))
    return tuple(components)


def singularity_report(family, n, step=1):
    """Branching data of the family member over its rotation quotient.

    The base is the member with parameter ``step``.  The collapsed edge
    classes come from :func:`singular_components`; the rotation axis is
    appended from the construction whenever the covering is nontrivial,
    with branching index equal to the covering degree.
    """
    auto = rotation(family, n, step)
    components = singular_components(auto, build_family(family, step))
    if auto.order > 1:
        components += (SingularComponent("rotation-axis", auto.order, 1,
                                         None, None),)
    return SingularityReport(family, step, auto.order, components, n,
                             _AXIS_NOTE)


def strongly_cyclic(report):
    """Whether the covering branches with full index over every component.

    True exactly when the covering is nontrivial and each singular component
    has branching index equal to the covering degree.
    """
    return (report.covering_degree > 1
            and bool(report.components)
            and all(component.branching_index == report.covering_degree
                    for component in report.components))
