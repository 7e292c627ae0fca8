"""Cyclic symmetries of paired complexes, their quotients and singular sets.

An automorphism here is a relabelling of the polyhedron that preserves every
piece of structure at once: faces map to faces matching the vertex images,
the boundary involution commutes with the induced slot map, and each pairing
is carried onto another pairing.  Only the vertex permutation is supplied;
the rest is forced over the connected boundary, without recursion, and checked.

Quotients fold each cell orbit to a single cell.  A face fixed setwise by
part of the group folds to a shorter polygon (its length divided by the
rotation the stabilizer induces), which is how an n-gon lid descends to the
lid of the smaller family member.  Identifications that fail to descend
raise :class:`pairglue.errors.UnsupportedQuotientError`; a verified
automorphism never produces one, but the quotient refuses to guess.
"""

from collections import namedtuple
from itertools import accumulate
from math import gcd, lcm
from types import MappingProxyType

from .complex_core import (
    PairedComplex,
    Pairing,
    _Immutable,
    _orbit_data,
    _require_valid,
    format_slot,
    natural_key,
    validate,
)
from .errors import DomainError, StructureError, UnsupportedQuotientError
from .families import _check_n, _idx, build_family

__all__ = ["AutomorphismCheck", "ComplexAutomorphism", "SingularComponent",
           "SingularityReport", "quotient_complex", "rotation",
           "singularity_report", "strongly_cyclic", "verify_automorphism"]


def _cycles(mapping, starts):
    """The cycles of a permutation, each from its first member in ``starts``."""
    seen = set()
    for start in starts:
        cycle = []
        x = start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = mapping[x]
        if cycle:
            yield cycle


def _forced_placements(c, candidates, pairing_lookup, face, placement):
    """Every face's placement forced by placing ``face``, or None.

    The mate of each slot goes to the mate of the slot's image, with the same
    alignment, onto a candidate, and pairings go onto pairings.  The images
    are then closed under the involution, so on a connected boundary they are
    all the faces, each once.
    """
    assignment = {face: placement}
    stack = [face]
    while stack:
        face = stack.pop()
        g, r = assignment[face]
        length = len(c.faces[face])
        for k in range(length):
            (mface, mk), aligned = c.involution[(face, k)]
            (mg, mk_image), aligned_image = c.involution[(g, (k + r) % length)]
            forced = (mg, (mk_image - mk) % len(c.faces[mface]))
            if aligned_image != aligned:
                return None
            if mface not in assignment and forced in candidates[mface]:
                assignment[mface] = forced
                stack.append(mface)
            elif assignment.get(mface) != forced:
                return None
    for p in c.pairings:
        gs, rs = assignment[p.source]
        gt, rt = assignment[p.target]
        image = pairing_lookup.get((gs, gt))
        if (image is None or image.direction != p.direction
                or image.offset != (p.offset - p.direction * rs + rt)
                % len(c.faces[gt])):
            return None
    return assignment


class ComplexAutomorphism(_Immutable):
    """A verified symmetry of a paired complex, made from its vertex map.

    ``ComplexAutomorphism(domain, vertex_map)`` extends a permutation of the
    vertex labels of a valid complex to the whole structure, or raises
    StructureError, so an instance is an automorphism by construction.  A
    face's candidate placements ``(g, r)``, from an index of every rotation
    of every face cycle, are the faces ``g`` whose cycle read from slot ``r``
    is the image of its own; the first candidate of the natural-least face
    whose forced placements (see :func:`_forced_placements`) survive gives
    the automorphism.

    Everything else is derived from the vertex map: the face map with its
    per-face rotation offsets, the induced slot map, the induced permutation
    of pairing names, the element's order, and the face transport of the
    cyclic group it spans (each face's orbit representative, the natural-
    least member; the slot rotation carrying the representative onto the
    face; and the representative's folded length), which :meth:`project`
    reads.  Instances are immutable, their maps are read-only
    (``MappingProxyType``), and copies and pickles are rebuilt, and so
    checked again, from ``(domain, vertex_map)``.
    """

    __slots__ = ("domain", "vertex_map", "face_map", "face_rotation",
                 "slot_map", "pairing_map", "order", "face_transport")

    def __init__(self, domain, vertex_map):
        c = domain
        _require_valid(c)
        vertex_map = dict(vertex_map)
        labels = set(c.vertex_labels)
        if set(vertex_map) != labels or set(vertex_map.values()) != labels:
            raise StructureError(
                ["vertex map is not a permutation of the vertex labels"])

        placements = {}
        for g in c.face_order:
            cycle = c.faces[g]
            for r in range(len(cycle)):
                placements.setdefault(cycle[r:] + cycle[:r], []).append((g, r))
        candidates = {}
        for face in c.face_order:
            options = placements.get(tuple(vertex_map[v] for v in c.faces[face]))
            if options is None:
                raise StructureError(
                    [f"no face matches the image of face {face} under the vertex map"])
            candidates[face] = options

        pairing_lookup = {(p.source, p.target): p for p in c.pairings}
        for placement in candidates[c.face_order[0]]:
            assignment = _forced_placements(c, candidates, pairing_lookup,
                                            c.face_order[0], placement)
            if assignment is not None:
                break
        else:
            raise StructureError(
                ["vertex map does not extend to an automorphism of the paired complex"])

        face_map = {f: assignment[f][0] for f in c.face_order}
        face_rotation = {f: assignment[f][1] for f in c.face_order}
        slot_map = {(f, k): (face_map[f],
                             (k + face_rotation[f]) % len(c.faces[f]))
                    for f in c.face_order for k in range(len(c.faces[f]))}
        pairing_map = {p.name: pairing_lookup[(face_map[p.source],
                                               face_map[p.target])].name
                       for p in c.pairings}
        face_transport = {}
        for cycle in _cycles(face_map, c.face_order):
            rots = list(accumulate((face_rotation[f] for f in cycle), initial=0))
            length = len(c.faces[cycle[0]])
            # the last sum is the rotation the orbit-stabilizing power
            # induces on the representative
            folded = gcd(length, rots.pop() % length)
            face_transport.update((face, (cycle[0], rot, folded))
                                  for face, rot in zip(cycle, rots))

        object.__setattr__(self, "domain", c)
        object.__setattr__(self, "vertex_map", MappingProxyType(vertex_map))
        object.__setattr__(self, "face_map", MappingProxyType(face_map))
        object.__setattr__(self, "face_rotation", MappingProxyType(face_rotation))
        object.__setattr__(self, "slot_map", MappingProxyType(slot_map))
        object.__setattr__(self, "pairing_map", MappingProxyType(pairing_map))
        object.__setattr__(self, "order", lcm(
            *(len(cycle) for mapping in (vertex_map, slot_map)
              for cycle in _cycles(mapping, mapping))))
        object.__setattr__(self, "face_transport",
                           MappingProxyType(face_transport))

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
                  else dict(automorphism))
    unknown = sorted((set(vertex_map) | set(vertex_map.values()))
                     - set(complex_.vertex_labels), key=natural_key)
    if unknown:
        raise DomainError(
            "vertex map uses labels not in the complex: " + " ".join(unknown))
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
    complex_ = build_family(family, n)
    vertex_map = {f"{letter}{i}": f"{letter}{_idx(i + step, n)}"
                  for letter in "PQRS" for i in range(1, n + 1)}
    auto = ComplexAutomorphism(complex_, vertex_map)
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
    become single cells, setwise-fixed faces fold to shorter polygons, and
    a pairing orbit descends to one pairing when every member gives the same
    one.  Identifications that do not descend, and a quotient that
    ``validate`` rejects, raise UnsupportedQuotientError.
    """
    auto = automorphism
    if not (isinstance(auto, ComplexAutomorphism) and auto.domain is complex_):
        auto = ComplexAutomorphism(complex_, (
            auto.vertex_map if isinstance(auto, ComplexAutomorphism) else auto))
    c = complex_
    transport = auto.face_transport
    project = auto.project

    # each orbit is represented by its natural-least member, so the
    # representatives taken in natural order are the quotient's labels
    vrep_of = {v: cycle[0] for cycle in _cycles(auto.vertex_map, c.vertex_order)
               for v in cycle}
    labels_q = [v for v, rep in vrep_of.items() if v == rep]

    faces_q = {f: tuple(vrep_of[v] for v in c.faces[f][:transport[f][2]])
               for f in c.face_order if transport[f][0] == f}

    involution_q = {}
    for slot in c.all_slots():
        mate, aligned = c.involution[slot]
        entry = (project(mate), aligned)
        if involution_q.setdefault(project(slot), entry) != entry:
            raise UnsupportedQuotientError(
                f"edge identifications do not descend at {format_slot(slot)}")

    def descend(p):
        """``(source rep, target rep, offset, direction)`` of the quotient
        pairing that ``p`` descends to; the offset is taken mod the folded
        length, which divides the face length."""
        source_rep, source_rot, length_q = transport[p.source]
        target_rep, target_rot, _ = transport[p.target]
        return (source_rep, target_rep,
                (p.offset + p.direction * source_rot - target_rot) % length_q,
                p.direction)

    by_name = {p.name: p for p in c.pairings}
    pairings_q = []
    for names in _cycles(auto.pairing_map, by_name):
        rep_name = min(names, key=natural_key)
        descended = descend(by_name[names[0]])
        if any(descend(by_name[name]) != descended for name in names):
            raise UnsupportedQuotientError(
                f"pairing orbit of {rep_name} does not descend")
        pairings_q.append(Pairing(rep_name, *descended))

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


def singularity_report(family, n, step=1):
    """Branching data of the family member over its rotation quotient.

    Each edge class downstairs whose upstairs classes are longer circles is a
    branched component with index equal to the length ratio; the rotation
    axis itself is appended as a component whenever the covering is
    nontrivial, with branching index equal to the covering degree.

    The base is the member with parameter ``step``: the quotient is checked
    against it, and UnsupportedQuotientError raised when they differ.
    """
    auto = rotation(family, n, step)
    upstairs = auto.domain
    quotient = quotient_complex(upstairs, auto)
    if not quotient.same_structure(build_family(family, step)):
        raise UnsupportedQuotientError(
            f"quotient of {family}({n}) by the step {step} rotation is not "
            f"{family}({step})")
    up_orbits, _, _ = _orbit_data(upstairs)
    down_orbits, _, down_index = _orbit_data(quotient)

    over = {}
    for orbit in up_orbits:
        over.setdefault(down_index[auto.project(orbit.representative)],
                        []).append(orbit)

    components = []
    for i, down_orbit in enumerate(down_orbits):
        preimages = over.get(i, [])
        sizes = {len(orbit.member_edges) for orbit in preimages}
        down_size = len(down_orbit.member_edges)
        if len(sizes) != 1 or next(iter(sizes)) % down_size:
            raise UnsupportedQuotientError(
                f"edge class at {format_slot(down_orbit.representative)} "
                "has an uneven preimage")
        ratio = next(iter(sizes)) // down_size
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
    if auto.order > 1:
        components.append(SingularComponent(
            kind="rotation-axis", branching_index=auto.order,
            upstairs_orbit_size=1, downstairs_class=None, downstairs_size=None))

    return SingularityReport(base_family=family, base_n=step,
                             covering_degree=auto.order,
                             components=tuple(components),
                             total_space_n=n, note=_AXIS_NOTE)


def strongly_cyclic(report):
    """Whether the covering branches with full index over every component.

    True exactly when the covering is nontrivial and each singular component
    has branching index equal to the covering degree.
    """
    return (report.covering_degree > 1
            and bool(report.components)
            and all(component.branching_index == report.covering_degree
                    for component in report.components))
