"""Plain-text documents for complexes and presentations, and the command line.

Complex documents open with the versioned header line ``pgv1 complex``.
Blank lines and ``#`` comments are ignored.  The format spells out every
polyhedron edge explicitly (``edge A1.0 D.0 same``) so that repeated vertex
labels never make identifications ambiguous; a document without edge lines
is still accepted when the labels determine the edges uniquely.  Pairing
lines carry an explicit direction sign plus the full vertex image list, one
image per vertex of the source face, and the sign is authoritative.

Presentation documents are a bare generator line followed by one relator
per line (``gens: c`` / ``rel: c c c``); inverse letters carry a ``-``
prefix.  A leading ``pgv1 presentation`` line is tolerated but not written.
"""

import sys

from .complex_core import (
    PairedComplex,
    Pairing,
    _hashable,
    _is_int,
    _repeats,
    cell_counts,
    edge_orbits,
    format_slot,
    is_manifold,
    vertex_orbits,
)
from .errors import DomainError, PairglueError, ParseError
from .families import M24, M25, build_family
from .group_theory.homology import h1
from .group_theory.presentations import (
    Presentation,
    auto_simplify,
    presentation_from_cw,
    presentation_from_pairings,
)
from .group_theory.words import _reads_back
from .symmetry import singularity_report, strongly_cyclic

__all__ = ["parse_complex", "parse_presentation", "serialize_complex",
           "serialize_presentation"]

COMPLEX_HEADER = "pgv1 complex"
PRESENTATION_HEADER = "pgv1 presentation"
EX_SOFTWARE = 70  # sysexits.h: internal software error


def _check_tokens(kind, values):
    """DomainError for the first of ``values``, a list, that is not a str
    that reads back as itself (one token)."""
    try:
        if " ".join(values).split() == values:
            return
    except TypeError:  # a value that is not a str
        pass
    bad = next(v for v in values if not isinstance(v, str) or v.split() != [v])
    raise DomainError(f"{kind} {bad!r} cannot be written in a document")


def serialize_complex(complex_):
    """Render a complex as a pgv1 document (inverse of parse_complex).

    One rule governs every field: it is written only if it reads back as
    itself, else DomainError is raised.  Each name, label and face entry
    must be a str that is neither empty nor holds whitespace, each slot a
    (label, int k >= 0) pair, ``n`` None or an int, a pairing's direction
    the int 1 or -1 and its offset an int in ``range(len(source face))``
    (0 when the source face is missing).  The involution must be symmetric,
    as each edge line stands for both of its slots' entries; the parser
    refuses a repeated vertex label and a face doubly or self paired.
    """
    c = complex_
    # every slot is checked before any edge line is written
    slots = dict.fromkeys(c.involution)
    try:
        slots.update((mate, None) for mate, _ in c.involution.values())
    except TypeError:  # a mate that cannot be hashed
        bad = next(mate for mate, _ in c.involution.values()
                   if not _hashable(mate))
        raise DomainError(
            f"slot {bad!r} cannot be written in a document") from None
    for slot in slots:
        if not (isinstance(slot, tuple) and len(slot) == 2
                and _is_int(slot[1]) and slot[1] >= 0):
            raise DomainError(f"slot {slot!r} cannot be written in a document")
    named = [("complex name", [c.name]),
             ("vertex label", list(c.vertex_labels)),
             ("face label", list(c.faces)),
             ("face entry", [v for cycle in c.faces.values() for v in cycle]),
             ("slot label", [label for label, _ in slots]),
             ("pairing name", [p.name for p in c.pairings]),
             ("pairing face label",
              [face for p in c.pairings for face in (p.source, p.target)])]
    for kind, values in named:
        _check_tokens(kind, values)
    repeats = _repeats(c.vertex_labels)
    if repeats:
        raise DomainError(f"duplicate vertex label {repeats[0]} cannot be written")
    lines = [COMPLEX_HEADER, f"name {c.name}"]
    if c.n is not None:
        if not _is_int(c.n):
            raise DomainError(f"n {c.n!r} cannot be written in a document")
        lines.append(f"n {c.n}")
    lines.append(" ".join(["vertices", *c.vertex_labels]))
    for label, cycle in c.faces.items():
        lines.append(" ".join(["face", label, *cycle]))
    for a, b, aligned in c.edges():
        for slot, mate in ((a, b), (b, a)):
            if c.involution.get(slot) != (mate, aligned):
                raise DomainError(
                    f"involution not symmetric at {format_slot(slot)}; "
                    "a pgv1 document cannot express it")
        lines.append(f"edge {format_slot(a)} {format_slot(b)} "
                     f"{'same' if aligned else 'opp'}")
    paired_faces = set()
    for p in c.pairings:
        for face in (p.source, p.target):
            if face in paired_faces:
                raise DomainError(f"face {face} doubly paired; "
                                  "a pgv1 document cannot express it")
            paired_faces.add(face)
        length = len(c.faces.get(p.source, ()))
        if not (_is_int(p.direction) and p.direction in (1, -1)
                and _is_int(p.offset) and 0 <= p.offset < max(length, 1)):
            raise DomainError(f"pairing {p.name} direction {p.direction!r} or "
                              f"offset {p.offset!r} cannot be written")
        fields = ["pairing", p.name, p.source, p.target,
                  "+" if p.direction == 1 else "-"]
        fields.extend(str(p.vertex_image(j, length)) for j in range(length))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _parse_int(token, number, message, signed=False):
    """``int(token)`` for ASCII digits (after one ``-`` if ``signed``), else
    ParseError; ``str.isdigit`` alone also passes digits ``int`` rejects."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(number, message)
    return int(token)


def _parse_slot(token, number):
    label, _, index = token.rpartition(".")
    message = f"bad slot {token!r} (expected FACE.k)"
    if not label:
        raise ParseError(number, message)
    return (label, _parse_int(index, number, message))


def parse_complex(text):
    """Parse a pgv1 complex document.

    Parsing is structural only: a document that parses may still fail
    :func:`pairglue.complex_core.validate`.  Errors that make the text
    itself unusable (bad directives, conflicting lines, a repeated vertex
    label, a face in two pairings, an image list whose length is not that of
    the pairing's source face) raise ParseError with the offending line number.
    """
    name = "complex"
    n = None
    vertices = None
    faces = {}
    edge_triples = []
    edge_slots = set()
    pairings = []
    image_counts = []
    paired_faces = set()
    single_lines = set()
    header_seen = False

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != COMPLEX_HEADER:
                raise ParseError(number, f"expected header {COMPLEX_HEADER!r}")
            header_seen = True
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword in ("name", "n", "vertices"):
            if keyword in single_lines:
                raise ParseError(number, f"duplicate {keyword} line")
            single_lines.add(keyword)
        if keyword == "name":
            if len(fields) != 2:
                raise ParseError(number, "name takes exactly one value")
            name = fields[1]
        elif keyword == "n":
            if len(fields) != 2:
                raise ParseError(number, "n takes one integer")
            n = _parse_int(fields[1], number, "n takes one integer",
                           signed=True)
        elif keyword == "vertices":
            vertices = fields[1:]
            repeats = _repeats(vertices)
            if repeats:
                raise ParseError(number, f"duplicate vertex label {repeats[0]}")
        elif keyword == "face":
            if len(fields) < 2:
                raise ParseError(number, "face line needs a label")
            label = fields[1]
            if label in faces:
                raise ParseError(number, f"duplicate face {label}")
            faces[label] = tuple(fields[2:])
        elif keyword == "edge":
            if len(fields) != 4:
                raise ParseError(number, "edge line needs two slots and an alignment")
            a = _parse_slot(fields[1], number)
            b = _parse_slot(fields[2], number)
            if fields[3] not in ("same", "opp"):
                raise ParseError(number, "alignment must be 'same' or 'opp'")
            for slot in {a, b}:
                if slot in edge_slots:
                    raise ParseError(number, f"slot {format_slot(slot)} "
                                     "appears in two edge lines")
                edge_slots.add(slot)
            edge_triples.append((a, b, fields[3] == "same"))
        elif keyword == "pairing":
            if len(fields) < 5:
                raise ParseError(number, "pairing line needs name, two faces "
                                 "and a sign")
            pname, source, target, sign = fields[1:5]
            if sign not in ("+", "-"):
                raise ParseError(number, "pairing sign must be '+' or '-'")
            images = [_parse_int(t, number,
                                 "pairing image list must be integers")
                      for t in fields[5:]]
            pairing = Pairing(pname, source, target,
                              images[0] if images else 0,
                              1 if sign == "+" else -1)
            length = len(images)
            if images != [pairing.vertex_image(j, length)
                          for j in range(length)]:
                raise ParseError(number, f"pairing {pname} image list does "
                                 "not match its sign")
            for face in (source, target):
                if face in paired_faces:
                    raise ParseError(number, f"face {face} doubly paired")
                paired_faces.add(face)
            pairings.append(pairing)
            image_counts.append((number, pname, source, length))
        else:
            raise ParseError(number, f"unknown directive {keyword!r}")

    if not header_seen:
        raise ParseError(1, f"expected header {COMPLEX_HEADER!r}")
    # the sign check above reads the list modulo its own length, which is
    # the face's only when the list has one image per source vertex
    for number, pname, source, count in image_counts:
        if source in faces and len(faces[source]) != count:
            raise ParseError(number, f"pairing {pname} lists {count} images "
                             f"for the {len(faces[source])} vertices of "
                             f"face {source}")
    return PairedComplex(vertices or (), faces,
                         edge_triples or _edges_from_labels(faces), pairings,
                         name=name, n=n)


def _edges_from_labels(faces):
    """Best-effort edge recovery for documents without edge lines.

    Works only when every unordered endpoint pair is shared by exactly two
    slots; reported as line 0 (whole document) otherwise.
    """
    groups = {}
    for label, cycle in faces.items():
        for k in range(len(cycle)):
            tail, head = cycle[k], cycle[(k + 1) % len(cycle)]
            groups.setdefault(frozenset((tail, head)), []).append(
                ((label, k), (tail, head)))
    triples = []
    for slots in groups.values():
        if len(slots) != 2:
            pair = " and ".join(format_slot(s) for s, _ in slots[:2])
            raise ParseError(0, "cannot infer edges from vertex labels "
                             f"(endpoint pair of {pair} is shared by "
                             f"{len(slots)} slots)")
        (a, ends_a), (b, ends_b) = slots
        triples.append((a, b, ends_a == ends_b))
    return triples


def serialize_presentation(presentation):
    """Render a presentation document (inverse of parse_presentation).

    >>> from .group_theory.presentations import Presentation
    >>> from .group_theory.words import Word
    >>> serialize_presentation(Presentation(["c"], [Word.parse("c c c")]))
    'gens: c\\nrel: c c c\\n'

    A generator name that is empty, holds whitespace or starts with ``-``
    would read back as other letters, so it raises DomainError.
    """
    for name in presentation.generators:
        if not _reads_back(name):
            raise DomainError(
                f"generator name {name!r} cannot be written in a document")
    lines = [" ".join(["gens:", *presentation.generators]).rstrip()]
    lines.extend(f"rel: {relator}".rstrip() for relator in presentation.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text):
    """Parse a presentation document."""
    from .group_theory.words import Word

    generators = None
    relators = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line == PRESENTATION_HEADER:
            continue
        if line.startswith("gens:"):
            if generators is not None:
                raise ParseError(number, "duplicate generator line")
            generators = line[len("gens:"):].split()
            if len(set(generators)) != len(generators):
                raise ParseError(number, "duplicate generator name")
            for name in generators:
                if name.startswith("-"):
                    raise ParseError(number, f"generator name {name!r} "
                                             "starts with '-'")
        elif line.startswith("rel:"):
            if generators is None:
                raise ParseError(number, "relator before the generator line")
            letters = []
            for token in line[len("rel:"):].split():
                name, sign = (token[1:], -1) if token.startswith("-") else (token, 1)
                if not name:
                    raise ParseError(number, f"bad letter {token!r}")
                if name not in generators:
                    raise ParseError(number, f"relator uses unknown generator {name}")
                letters.append((name, sign))
            relators.append(Word(letters))
        else:
            raise ParseError(number, f"unknown directive {line.split()[0]!r}")
    if generators is None:
        raise ParseError(0, "missing generator line")
    return Presentation(generators, relators)


def _cmd_gen(args):
    text = serialize_complex(build_family(args.family, args.n))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(
                f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_analyze(args):
    complex_ = build_family(args.family, args.n)
    print(f"complex {args.family}({args.n}): {len(complex_.vertex_labels)} "
          f"vertices, {len(complex_.faces)} faces, "
          f"{len(complex_.pairings)} pairings")
    counts = cell_counts(complex_)
    print(f"cell census: sigma0={counts.sigma0} sigma1={counts.sigma1} "
          f"sigma2={counts.sigma2} sigma3={counts.sigma3}")
    closed, chi = is_manifold(complex_)
    verdict = "closed orientable 3-manifold" if closed else "not a manifold"
    print(f"euler characteristic {chi}: {verdict}")
    for orbit in vertex_orbits(complex_):
        line = (f"vertex class {orbit.representative}: "
                f"{len(orbit.member_vertices)} vertices")
        if args.verbose:
            line += " (" + " ".join(orbit.member_vertices) + ")"
        print(line)
    for orbit in edge_orbits(complex_):
        line = (f"edge class {format_slot(orbit.representative)}: "
                f"{len(orbit.member_edges)} edges")
        if args.verbose:
            line += f", cycle word {orbit.cycle_word}"
        print(line)
    return 0


def _presentation_for(args):
    complex_ = build_family(args.family, args.n)
    if args.mode == "cw":
        return presentation_from_cw(complex_)
    return presentation_from_pairings(complex_)


def _cmd_pi1(args):
    presentation = _presentation_for(args)
    if args.simplify:
        presentation = auto_simplify(presentation)
    sys.stdout.write(serialize_presentation(presentation))
    return 0


def _cmd_h1(args):
    print(h1(_presentation_for(args)))
    return 0


def _default_step(family, n):
    return 2 if family == M25 and n % 2 == 0 else 1


def _cmd_symmetry(args):
    report = singularity_report(args.family, args.n, args.step)
    print(f"rotation step {args.step} on {args.family}({args.n}): "
          f"degree {report.covering_degree} cover of "
          f"{report.base_family}({report.base_n})")
    if report.components:
        print("singular components:")
        for component in report.components:
            where = ("axis" if component.downstairs_class is None
                     else f"edge class {format_slot(component.downstairs_class)}")
            print(f"  {component.kind} at {where}: branching index "
                  f"{component.branching_index}")
    else:
        print("singular components: none")
    print(f"strongly cyclic: {'yes' if strongly_cyclic(report) else 'no'}")
    if any(c.kind == "rotation-axis" for c in report.components):
        print(f"note: {report.note}")
    return 0


def _cmd_table(args):
    if args.from_n < 1 or args.to_n < args.from_n:
        raise DomainError("table range needs 1 <= from <= to")
    span = range(args.from_n, args.to_n + 1)
    # the bases are held for the whole table and each member for its row, so
    # every report reuses them and each is built once
    bases = [build_family(args.family, step)
             for step in sorted({_default_step(args.family, n) for n in span})]
    rows = []
    for n in span:
        member = build_family(args.family, n)
        homology = str(h1(presentation_from_pairings(member)))
        report = singularity_report(args.family, n, _default_step(args.family, n))
        if report.components:
            indices = sorted({c.branching_index for c in report.components})
            word = "component" if len(report.components) == 1 else "components"
            singular = (f"{len(report.components)} {word}, index "
                        + ",".join(str(i) for i in indices))
        else:
            singular = "none"
        rows.append((str(n), homology, singular, "external"))
    headers = ("n", "H1", "singular components", "volume")
    widths = [max(len(row[i]) for row in [headers, *rows]) for i in range(4)]
    for row in [headers, *rows]:
        print(" | ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip())
    print("volume: not computed here; requires external hyperbolic-geometry "
          "software")
    return 0


def _build_parser():
    # imported here, as main imports traceback: argparse and the gettext it
    # loads would add about a third to ``import pairglue``
    import argparse

    parser = argparse.ArgumentParser(
        prog="pairglue",
        description="Face-pairing quotient complexes: manifold certification, "
                    "fundamental-group tooling, homology and symmetry analysis.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="add orbit traces to analyze output and "
                             "tracebacks to internal errors")
    commands = parser.add_subparsers(dest="command", required=True)

    def family_options(sub):
        sub.add_argument("--family", required=True, choices=(M24, M25))
        sub.add_argument("--n", type=int, required=True)

    gen = commands.add_parser("gen", help="write a family member as a document")
    family_options(gen)
    gen.add_argument("--out", metavar="FILE",
                     help="write to a file instead of stdout")
    gen.set_defaults(handler=_cmd_gen)

    analyze = commands.add_parser("analyze",
                                  help="cell census and manifold certification")
    family_options(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    pi1 = commands.add_parser("pi1", help="fundamental group presentation")
    family_options(pi1)
    pi1.add_argument("--mode", choices=("pairing", "cw"), default="pairing")
    pi1.add_argument("--simplify", action="store_true",
                     help="eliminate generators with short defining relators")
    pi1.set_defaults(handler=_cmd_pi1)

    homology = commands.add_parser("h1", help="first homology group")
    family_options(homology)
    homology.add_argument("--mode", choices=("pairing", "cw"), default="pairing")
    homology.set_defaults(handler=_cmd_h1)

    symmetry = commands.add_parser("symmetry",
                                   help="rotation symmetry and singular set")
    family_options(symmetry)
    symmetry.add_argument("--step", type=int, choices=(1, 2), default=1)
    symmetry.set_defaults(handler=_cmd_symmetry)

    table = commands.add_parser("table",
                                help="summary table across family members")
    table.add_argument("--family", required=True, choices=(M24, M25))
    table.add_argument("--from", dest="from_n", type=int, required=True,
                       metavar="A")
    table.add_argument("--to", dest="to_n", type=int, required=True,
                       metavar="B")
    table.set_defaults(handler=_cmd_table)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except PairglueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in pairglue itself, not in the input
        if args.verbose:
            # imported only here: it would add more to ``import pairglue``
            # than the rest of the package's stdlib imports
            import traceback
            traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
