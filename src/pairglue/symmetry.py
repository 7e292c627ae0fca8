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
from math import gcd, lcm

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


class ComplexAutomorphism(_Immutable):
    """A structure-preserving symmetry of a paired complex.

    Instances come from :func:`rotation` and carry the full derived data:
    the face map with its per-face rotation offsets, the induced slot map,
    the induced permutation of pairing names, and the element's order.  They
    are immutable: assigning to an attribute raises AttributeError.
    :func:`verify_automorphism` checks a claimed symmetry and returns an
    :class:`AutomorphismCheck`; :func:`quotient_complex` trusts an instance
    whose ``domain`` is the very complex it is given, a hand-built one too.
    """

    __slots__ = ("domain", "vertex_map", "face_map", "face_rotation",
                 "slot_map", "pairing_map", "order")

    def __init__(self, domain, vertex_map, face_map, face_rotation,
                 slot_map, pairing_map, order):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "vertex_map", vertex_map)
        object.__setattr__(self, "face_map", face_map)
        object.__setattr__(self, "face_rotation", face_rotation)
        object.__setattr__(self, "slot_map", slot_map)
        object.__setattr__(self, "pairing_map", pairing_map)
        object.__setattr__(self, "order", order)

    def __reduce__(self):
        return (ComplexAutomorphism,
                tuple(getattr(self, name) for name in self.__slots__))

    def __repr__(self):
        return (f"<ComplexAutomorphism of {self.domain.name!r} "
                f"order {self.order}>")


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


def _extend_vertex_map(complex_, vertex_map):
    """Extend a vertex permutation to a full automorphism, or fail loudly.

    The vertex map must be a bijection on the vertex labels.  A face's
    candidate placements ``(g, r)``, from an index of every rotation of every
    face cycle, are the faces ``g`` whose cycle read from slot ``r`` is the
    image of its own.  The first candidate of the natural-least face whose
    forced placements (see :func:`_forced_placements`) survive gives the
    automorphism; raises StructureError if none does.
    """
    c = complex_
    _require_valid(c)
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

    order = lcm(*(len(cycle) for mapping in (vertex_map, slot_map)
                  for cycle in _cycles(mapping, mapping)))
    return ComplexAutomorphism(c, dict(vertex_map), face_map, face_rotation,
                               slot_map, pairing_map, order)


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
    fails (valid=False, with a reason) when the map is not a permutation,
    does not extend to face, involution and pairing structure, or declares
    an order different from the true one; otherwise valid is True and
    ``order`` is the element's exact order.

    >>> from .families import build_m24
    >>> verify_automorphism(build_m24(5), rotation("m24", 5))
    AutomorphismCheck(valid=True, order=5, reason='')
    """
    declared = None
    if isinstance(automorphism, ComplexAutomorphism):
        vertex_map = automorphism.vertex_map
        declared = automorphism.order
    else:
        vertex_map = dict(automorphism)
    unknown = sorted((set(vertex_map) | set(vertex_map.values()))
                     - set(complex_.vertex_labels), key=natural_key)
    if unknown:
        raise DomainError(
            "vertex map uses labels not in the complex: " + " ".join(unknown))
    try:
        extended = _extend_vertex_map(complex_, vertex_map)
    except StructureError as exc:
        return AutomorphismCheck(False, None, str(exc))
    if declared is not None and extended.order != declared:
        return AutomorphismCheck(
            False, extended.order,
            f"declared order {declared} but the true order is {extended.order}")
    return AutomorphismCheck(True, extended.order, "")


def rotation(family, n, step=1):
    """The index-shift symmetry of a family member: every X_i goes to X_{i+step}.

    ``step`` is 1 or 2, and 2 only for even n (so that the index classes mod
    step close up).  The returned automorphism has order n / gcd(n, step).

    >>> rotation("m24", 3).order
    3
    """
    _check_n(n)
    if step not in (1, 2):
        raise DomainError(f"rotation step must be 1 or 2, got {step!r}")
    if step == 2 and n % 2:
        raise DomainError("rotation step 2 requires even n")
    complex_ = build_family(family, n)
    vertex_map = {f"{letter}{i}": f"{letter}{_idx(i + step, n)}"
                  for letter in "PQRS" for i in range(1, n + 1)}
    auto = _extend_vertex_map(complex_, vertex_map)
    expected = n // gcd(n, step)
    if auto.order != expected:
        raise StructureError(
            [f"rotation has order {auto.order}, expected {expected}"])
    return auto


def _face_transport(automorphism):
    """Per-face transport data for the cyclic group the automorphism generates.

    Returns ``(rep_of, rot_of, folded, project)``: each face's orbit
    representative (the natural-least member), the slot rotation carrying the
    representative onto the face, the folded length of each representative,
    and the slot projection onto the quotient.
    """
    auto = automorphism
    c = auto.domain
    rep_of = {}
    rot_of = {}
    folded = {}
    for cycle in _cycles(auto.face_map, c.face_order):
        rep, rot = cycle[0], 0
        for face in cycle:
            rep_of[face] = rep
            rot_of[face] = rot
            rot += auto.face_rotation[face]
        length = len(c.faces[rep])
        # rot is now the rotation the orbit-stabilizing power induces on rep
        folded[rep] = gcd(length, rot % length)

    def project(slot):
        face, k = slot
        rep = rep_of[face]
        return (rep, (k - rot_of[face]) % folded[rep])

    return rep_of, rot_of, folded, project


def quotient_complex(complex_, automorphism):
    """The quotient of a complex by the cyclic group an automorphism spans.

    ``automorphism`` is a ComplexAutomorphism or a bare vertex mapping; it is
    re-verified against ``complex_`` unless it was derived from that very
    object.  Cell orbits become single cells, setwise-fixed faces fold to
    shorter polygons, and pairings descend through the orbit member whose
    source is the representative face.  Every descent step is checked; a
    violation raises UnsupportedQuotientError.
    """
    auto = automorphism
    if not (isinstance(auto, ComplexAutomorphism) and auto.domain is complex_):
        auto = _extend_vertex_map(complex_, dict(
            auto.vertex_map if isinstance(auto, ComplexAutomorphism) else auto))
    return _quotient(auto)[0]


def _quotient(auto):
    """``(quotient, project)``: the body of :func:`quotient_complex`, with
    the slot projection from :func:`_face_transport` for reuse."""
    c = auto.domain
    rep_of, rot_of, folded, project = _face_transport(auto)

    # each orbit is represented by its natural-least member, so the
    # representatives taken in natural order are the quotient's labels
    vrep_of = {v: cycle[0] for cycle in _cycles(auto.vertex_map, c.vertex_order)
               for v in cycle}
    labels_q = [v for v, rep in vrep_of.items() if v == rep]

    face_reps = [f for f in c.face_order if rep_of[f] == f]
    faces_q = {rep: tuple(vrep_of[v] for v in c.faces[rep][:folded[rep]])
               for rep in face_reps}

    involution_q = {}
    for slot in c.all_slots():
        mate, aligned = c.involution[slot]
        down, down_mate = project(slot), project(mate)
        if down == down_mate:
            raise UnsupportedQuotientError(
                f"edge at {format_slot(slot)} collapses onto itself in the quotient")
        entry = (down_mate, aligned)
        if involution_q.setdefault(down, entry) != entry:
            raise UnsupportedQuotientError(
                f"edge identifications do not descend at {format_slot(slot)}")

    by_name = {p.name: p for p in c.pairings}
    pairings_q = []
    for names in _cycles(auto.pairing_map, by_name):
        orbit = [by_name[name] for name in names]
        p = orbit[0]
        rep_name = min((member.name for member in orbit), key=natural_key)
        source_rep = rep_of[p.source]
        target_rep = rep_of[p.target]
        if source_rep == target_rep:
            raise UnsupportedQuotientError(
                f"pairing {rep_name} would pair face {source_rep} "
                "with itself in the quotient")
        length_q = folded[source_rep]
        if folded[target_rep] != length_q:
            raise UnsupportedQuotientError(
                f"pairing {rep_name} joins faces that fold to different lengths")
        anchor = next(member for member in orbit if member.source == source_rep)
        offset_q = ((anchor.offset - rot_of[anchor.target])
                    % len(c.faces[anchor.target])) % length_q
        for member in orbit:
            length = len(c.faces[member.source])
            descended = ((member.offset + member.direction * rot_of[member.source]
                          - rot_of[member.target]) % length) % length_q
            if (rep_of[member.source] != source_rep
                    or rep_of[member.target] != target_rep
                    or member.direction != anchor.direction
                    or descended != offset_q):
                raise UnsupportedQuotientError(
                    f"pairing orbit of {rep_name} does not descend")
        pairings_q.append(Pairing(rep_name, source_rep, target_rep,
                                  offset_q, anchor.direction))

    quotient = PairedComplex(labels_q, faces_q, involution_q, pairings_q,
                             name=f"{c.name}/Z{auto.order}")
    problems = validate(quotient)
    if problems:
        raise UnsupportedQuotientError(
            "quotient is not a valid paired complex: " + "; ".join(problems))
    return quotient, project


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
    quotient, project = _quotient(auto)
    if not quotient.same_structure(build_family(family, step)):
        raise UnsupportedQuotientError(
            f"quotient of {family}({n}) by the step {step} rotation is not "
            f"{family}({step})")
    up_orbits, _, _ = _orbit_data(upstairs)
    down_orbits, _, down_index = _orbit_data(quotient)

    over = {}
    for orbit in up_orbits:
        over.setdefault(down_index[project(orbit.representative)], []).append(orbit)

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
