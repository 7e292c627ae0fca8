"""Document serialization, parsing, and the command line."""

import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from pairglue import (
    PairedComplex,
    Pairing,
    build_family,
    build_m24,
    build_m25,
    parse_complex,
    parse_presentation,
    presentation_from_cw,
    presentation_from_pairings,
    reduced_family_presentation,
    serialize_complex,
    serialize_presentation,
    validate,
)
from pairglue import families
from pairglue.errors import DomainError, ParseError
from pairglue.io_cli import main


# ----------------------------------------------------- complex documents

def test_complex_roundtrip():
    for family in ("m24", "m25"):
        for n in range(1, 5):
            original = build_family(family, n)
            parsed = parse_complex(serialize_complex(original))
            assert parsed.same_structure(original)
            assert parsed.name == original.name
            assert parsed.n == n


def test_serialized_line_counts():
    lines = serialize_complex(build_m25(2)).splitlines()
    assert lines[0] == "pgv1 complex"
    assert sum(1 for l in lines if l.startswith("face ")) == 14
    assert sum(1 for l in lines if l.startswith("pairing ")) == 7
    assert sum(1 for l in lines if l.startswith("edge ")) == 20


def test_invalid_complex_documents_round_trip():
    # edges on faces the complex lacks are written after all the others
    text = ("pgv1 complex\nvertices p q\nface F p q\nface G p q\n"
            "edge Z.0 H.1 same\nedge G.1 F.1 opp\nedge H.0 F.0 opp\n"
            "pairing f F G + 0 1\n")
    c = parse_complex(text)
    document = serialize_complex(c)
    assert [line for line in document.splitlines() if line.startswith("edge")] \
        == ["edge F.0 H.0 opp", "edge F.1 G.1 opp", "edge H.1 Z.0 same"]
    assert parse_complex(document).involution == c.involution
    assert serialize_complex(parse_complex(document)) == document


@pytest.mark.parametrize("changes, slot", [
    ({("G", 0): (("F", 0), False)}, "F.0"),  # mates disagree on alignment
    ({("G", 1): (("F", 2), True)}, "G.1"),   # F.1's mate G.1 points to F.2
    ({("F", 2): None}, "F.2"),               # F.2 has no entry
])
def test_serialize_rejects_involution_it_cannot_express(changes, slot):
    faces = {"F": ("p", "q", "r"), "G": ("p", "q", "r")}
    involution = {(face, k): ((mate, k), True)
                  for face, mate in ("FG", "GF") for k in range(3)}
    involution.update(changes)
    c = PairedComplex(["p", "q", "r"], faces,
                      {s: e for s, e in involution.items() if e is not None},
                      [Pairing("f", "F", "G", 0, 1)])
    with pytest.raises(DomainError, match=f"not symmetric at {slot};"):
        serialize_complex(c)


def test_parse_infers_edges_when_absent():
    original = build_m24(3)
    text = "\n".join(line for line in serialize_complex(original).splitlines()
                     if not line.startswith("edge "))
    assert parse_complex(text).same_structure(original)


def test_parse_edge_inference_needs_unambiguous_endpoints():
    text = "pgv1 complex\nface F a b c\n"
    with pytest.raises(ParseError) as exc:
        parse_complex(text)
    assert exc.value.line == 0
    assert "cannot infer edges" in str(exc.value)


def test_parse_complex_errors_carry_line_numbers():
    good = serialize_complex(build_m24(1))
    cases = [
        ("nonsense\n", 1, "expected header"),
        ("", 1, "expected header"),
        ("pgv1 complex\nface F a b\nface F a b\n", 3, "duplicate face F"),
        ("pgv1 complex\nedge F1 G.0 same\n", 2, "bad slot"),
        ("pgv1 complex\nedge F.0 G.0 sideways\n", 2, "alignment"),
        ("pgv1 complex\nedge F.0 G.0 same\nedge F.0 G.1 opp\n", 3,
         "appears in two edge lines"),
        ("pgv1 complex\nwibble x\n", 2, "unknown directive"),
        ("pgv1 complex\npairing f F G + 0 2 1\n", 2,
         "does not match its sign"),
        ("pgv1 complex\npairing f F G ? 0 1 2\n", 2, "sign"),
        ("pgv1 complex\npairing f F G + 0 1\npairing g F H + 0 1\n", 3,
         "face F doubly paired"),
        ("pgv1 complex\nvertices a\nvertices b\n", 3, "duplicate vertices"),
        ("pgv1 complex\nvertices a b a\n", 2, "duplicate vertex label a"),
        ("pgv1 complex\nname a\nname b\n", 3, "duplicate name line"),
        ("pgv1 complex\nn 1\nvertices a\nn 1\n", 4, "duplicate n line"),
        ("pgv1 complex\nn lots\n", 2, "one integer"),
        ("pgv1 complex\nn --5\n", 2, "one integer"),
        ("pgv1 complex\nn \u00b2\n", 2, "one integer"),
        ("pgv1 complex\nedge F.\u00b2 G.0 same\n", 2, "bad slot"),
        ("pgv1 complex\npairing f F G + 0 \u00b2\n", 2,
         "image list must be integers"),
        ("pgv1 complex\nname two words\n", 2, "name takes exactly one value"),
        ("pgv1 complex\nname\n", 2, "name takes exactly one value"),
        ("pgv1 complex\nn 1 2\n", 2, "n takes one integer"),
        ("pgv1 complex\nface\n", 2, "face line needs a label"),
        ("pgv1 complex\nedge F.0 G.0\n", 2, "edge line needs two slots"),
        ("pgv1 complex\npairing f F G\n", 2, "pairing line needs name"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_complex(text)
        assert exc.value.line == line, text
        assert fragment in str(exc.value), text
    # control: the serialized document itself parses
    assert parse_complex(good).same_structure(build_m24(1))


SQUARES = ("pgv1 complex\nvertices a b c d\n"
           "face F a b c d\nface G a b c d\n")


@pytest.mark.parametrize("text, line", [
    (SQUARES + "pairing f F G + 1 0\n", 5),
    ("pgv1 complex\npairing f F G + 1 0\nvertices a b c d\n"
     "face F a b c d\nface G a b c d\n", 2),
    (SQUARES + "pairing f F G - 0\n", 5),
], ids=["faces first", "pairing first", "one image"])
def test_parse_complex_rejects_image_list_shorter_than_its_face(text, line):
    # read modulo its own length, "+ 1 0" would pass as offset 1 and map
    # vertex 1 of F to vertex 2 of G, not to the 0 the document lists
    with pytest.raises(ParseError) as exc:
        parse_complex(text)
    assert exc.value.line == line
    assert "pairing f lists" in str(exc.value)
    assert "4 vertices of face F" in str(exc.value)


def test_parse_complex_reads_a_full_image_list_on_either_side_of_its_faces():
    pairing = "pairing f F G + 1 2 3 0\n"
    for text in (SQUARES + pairing,
                 "pgv1 complex\n" + pairing + SQUARES.split("\n", 1)[1]):
        c = parse_complex(text)
        assert c.pairings == (Pairing("f", "F", "G", 1, 1),)
        assert c.pairings[0].vertex_image(1, 4) == 2


@pytest.mark.parametrize("kind, name, change", [
    ("complex name", "two words", {"name": "two words"}),
    ("complex name", "", {"name": ""}),
    ("vertex label", "P 1", {"vertex_labels": ["P 1", "Q1", "R1", "S1"]}),
    ("face label", "F 1", {"faces": {"F 1": ("P1", "Q1")}}),
    ("pairing name", "a\tb", {"pairings": [Pairing("a\tb", "A1", "Ab1")]}),
    ("pairing name", "", {"pairings": [Pairing("", "A1", "Ab1")]}),
    ("pairing face label", "X Y", {"pairings": [Pairing("a1", "X Y", "Ab1")]}),
    ("pairing face label", "", {"pairings": [Pairing("a1", "A1", "")]}),
    # "face F a b" would read back as a face of two vertices
    ("face entry", "a b", {"faces": {"F": ("a b",)}}),
    ("face entry", "", {"faces": {"F": ("P1", "")}}),
])
def test_serialize_complex_rejects_inexpressible_names(kind, name, change):
    # "name two words" would read back as a name line with two values
    c = build_m24(1)
    fields = {"vertex_labels": c.vertex_labels, "faces": c.faces,
              "involution": c.involution, "pairings": c.pairings,
              "name": c.name, "n": c.n, **change}
    message = re.escape(f"{kind} {name!r} cannot be written in a document")
    with pytest.raises(DomainError, match=message):
        serialize_complex(PairedComplex(**fields))


def test_serialize_complex_rejects_a_repeated_vertex_label():
    # the parser refuses a vertices line that repeats a label
    c = build_m24(1)
    broken = PairedComplex([*c.vertex_labels, "Q1"], c.faces, c.involution,
                           c.pairings)
    assert validate(broken) == ["duplicate vertex label Q1"]
    with pytest.raises(DomainError, match="duplicate vertex label Q1"):
        serialize_complex(broken)


@pytest.mark.parametrize("offset, direction", [
    ("1", 1),   # not an int
    (1.0, 1),   # "1.0" is no image the parser reads
    (0, 2),     # the sign "-" would read back as -1
    (5, 1),     # out of range for the 1-gon D: image 0 reads back as 0
])
def test_serialize_complex_rejects_inexpressible_pairings(offset, direction):
    c = build_m24(1)
    pairings = [p if p.name != "d" else Pairing("d", "D", "Db", offset, direction)
                for p in c.pairings]
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, pairings)
    message = re.escape(f"pairing d direction {direction!r} or offset "
                        f"{offset!r} cannot be written")
    with pytest.raises(DomainError, match=message):
        serialize_complex(broken)


def test_serialize_complex_writes_only_offset_zero_for_a_missing_face():
    # a pairing of missing faces is written with no images, read as offset 0
    c = build_m24(1)

    def with_missing(offset):
        return PairedComplex(c.vertex_labels, c.faces, c.involution,
                             [*c.pairings, Pairing("e", "X", "Y", offset, -1)])

    zero = with_missing(0)
    assert parse_complex(serialize_complex(zero)).same_structure(zero)
    with pytest.raises(DomainError, match="pairing e"):
        serialize_complex(with_missing(1))


@pytest.mark.parametrize("pairing, face", [
    (Pairing("d", "D", "A1"), "A1"),  # A1 is also the source of a1
    (Pairing("d", "D", "D"), "D"),    # read back, D is met twice on one line
])
def test_serialize_complex_rejects_doubly_paired_faces(pairing, face):
    # parse_complex refuses such a document with "face ... doubly paired"
    c = build_m24(1)
    pairings = [pairing if p.name == "d" else p for p in c.pairings]
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, pairings)
    with pytest.raises(DomainError, match=f"face {face} doubly paired"):
        serialize_complex(broken)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_serialize_complex_rejects_a_non_integer_n(n):
    # "n True" or "n 1.0" would not parse; "n 1" would read back as the int
    c = build_m24(1)
    broken = PairedComplex(c.vertex_labels, c.faces, c.involution, c.pairings,
                           name=c.name, n=n)
    with pytest.raises(DomainError, match=re.escape(f"n {n!r} cannot be written")):
        serialize_complex(broken)


@pytest.mark.parametrize("extra, kind, value", [
    # "edge a b.0 Z.0 same" would read back as an edge line of five fields
    ((("a b", 0), ("Z", 0), True), "slot label", "a b"),
    ((("G", -1), ("Z", 0), True), "slot", ("G", -1)),
    ((("G", "x"), ("Z", 0), True), "slot", ("G", "x")),
    ((("G", True), ("Z", 0), True), "slot", ("G", True)),
    # "G.1.0" would read back silently as the slot ("G.1", 0)
    ((("G", 1.0), ("Z", 0), True), "slot", ("G", 1.0)),
    # an int and a str index on one undeclared face cannot be sorted
    ((("G", 0), ("G", "1"), True), "slot", ("G", "1")),
], ids=["whitespace label", "negative index", "str index", "bool index",
        "float index", "mixed index types"])
def test_serialize_complex_rejects_inexpressible_slots(extra, kind, value):
    c = build_m24(1)
    broken = PairedComplex(c.vertex_labels, c.faces, [*c.edges(), extra],
                           c.pairings, name=c.name, n=c.n)
    message = re.escape(f"{kind} {value!r} cannot be written in a document")
    with pytest.raises(DomainError, match=message):
        serialize_complex(broken)


FUZZ_VALUES = ("", "a b", -1, 1.0, True, "x", None)


def corrupt(c, rng):
    """The fields of ``c`` with one of them replaced by a FUZZ_VALUES entry:
    a label, a face entry, an involution slot, a pairing field or ``n``."""
    fields = {"vertex_labels": list(c.vertex_labels), "faces": dict(c.faces),
              "involution": dict(c.involution), "pairings": list(c.pairings),
              "name": c.name, "n": c.n}
    value = rng.choice(FUZZ_VALUES)
    site = rng.choice(["name", "vertex label", "face label", "face entry",
                       "slot", "pairing", "n"])
    if site in ("name", "n"):
        fields[site] = value
    elif site == "vertex label":
        fields["vertex_labels"][rng.randrange(len(c.vertex_labels))] = value
    elif site == "face label":
        old = rng.choice(c.face_order)
        fields["faces"] = {value if label == old else label: cycle
                           for label, cycle in c.faces.items()}
    elif site == "face entry":
        label = rng.choice(c.face_order)
        cycle = list(c.faces[label])
        cycle[rng.randrange(len(cycle))] = value
        fields["faces"][label] = cycle
    elif site == "slot":
        # the slot's label or index changes wherever the involution names it
        old = rng.choice(c.all_slots())
        new = (value, old[1]) if rng.random() < 0.5 else (old[0], value)

        def rename(slot):
            return new if slot == old else slot

        fields["involution"] = {rename(slot): (rename(mate), aligned)
                                for slot, (mate, aligned)
                                in c.involution.items()}
    else:
        i = rng.randrange(len(c.pairings))
        pairing = {field: getattr(c.pairings[i], field) for field
                   in ("name", "source", "target", "offset", "direction")}
        pairing[rng.choice(list(pairing))] = value
        fields["pairings"][i] = Pairing(**pairing)
    return site, value, fields


def test_serialize_complex_fuzz_writes_only_what_reads_back():
    # each corrupted complex is refused with DomainError or written as a
    # document that reads back as the same complex
    rng = random.Random(2011)
    members = [build_family(family, n) for family in ("m24", "m25")
               for n in (1, 2, 3)]
    outcomes = {"refused": 0, "written": 0}
    for _ in range(600):
        site, value, fields = corrupt(rng.choice(members), rng)
        try:
            broken = PairedComplex(**fields)
        except DomainError as exc:
            # labels are str: the constructor sorts them in natural order
            assert site in ("vertex label", "face label")
            assert not isinstance(value, str)
            assert str(exc) == f"{site} {value!r} is not a str"
            continue
        try:
            document = serialize_complex(broken)
        except DomainError:
            outcomes["refused"] += 1
            continue
        outcomes["written"] += 1
        back = parse_complex(document)
        assert back.same_structure(broken), (site, value)
        assert (back.name, back.n, back.vertex_labels) \
            == (broken.name, broken.n, broken.vertex_labels), (site, value)
    assert min(outcomes.values()) >= 50, outcomes


def test_parse_complex_skips_blank_and_comment_lines():
    text = serialize_complex(build_m24(2))
    noisy = "# a comment\n\n" + text.replace("\n", "\n# noise\n\n", 3)
    assert parse_complex(noisy).same_structure(build_m24(2))


# ------------------------------------------------ presentation documents

def test_serialize_presentation_frozen():
    from pairglue import Presentation, Word
    assert serialize_presentation(
        Presentation(["c"], [Word.parse("c c c")])) == "gens: c\nrel: c c c\n"


def test_presentation_roundtrip():
    for presentation in (
            presentation_from_pairings(build_m24(3)),
            presentation_from_cw(build_m25(4)),
            reduced_family_presentation("m24", 4)):
        assert parse_presentation(
            serialize_presentation(presentation)) == presentation


@pytest.mark.parametrize("name", ["-a", "", "a b", " a", "a\t"])
def test_serialize_presentation_rejects_inexpressible_generator(name):
    # "rel: -a" would read back as the inverse of a, a different group
    from pairglue import Presentation, Word
    presentation = Presentation(["a", name], [Word([(name, 1)])])
    message = re.escape(f"generator name {name!r}")
    with pytest.raises(DomainError, match=message):
        serialize_presentation(presentation)


def test_parse_presentation_tolerates_header_and_comments():
    parsed = parse_presentation(
        "pgv1 presentation\n# comment\n\ngens: a b\nrel: a b -a -b\n")
    assert parsed.generators == ("a", "b")
    assert len(parsed.relators) == 1


def test_parse_presentation_errors():
    cases = [
        ("rel: a\ngens: a\n", 1, "relator before the generator line"),
        ("gens: a\nrel: q\n", 2, "unknown generator"),
        ("gens: a\nrel: -\n", 2, "bad letter"),
        ("gens: a\ngens: b\n", 2, "duplicate generator line"),
        ("gens: a a\n", 1, "duplicate generator name"),
        ("gens: a -a\nrel: -a\n", 1, "generator name '-a' starts with '-'"),
        ("gens: a\nfoo bar\n", 2, "unknown directive"),
        ("# nothing here\n", 0, "missing generator line"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.line == line, text
        assert fragment in str(exc.value), text


# ------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_h1_goldens(capsys):
    code, out, _ = run_cli(capsys, "h1", "--family", "m24", "--n", "6")
    assert code == 0 and out == "Z3 + Z9 + Z18\n"
    code, out, _ = run_cli(capsys, "h1", "--family", "m25", "--n", "2")
    assert code == 0 and out == "Z3\n"
    code, out, _ = run_cli(capsys, "h1", "--family", "m25", "--n", "3",
                           "--mode", "cw")
    assert code == 0 and out == "Z2 + Z18\n"


def test_cli_h1_large_member(capsys):
    code, out, _ = run_cli(capsys, "h1", "--family", "m25", "--n", "100")
    assert code == 0
    assert out == "Z75 + Z354224848179261915075 + Z708449696358523830150\n"


def test_cli_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "m24", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complex m24(3): 12 vertices, 20 faces, 10 pairings"
    assert lines[1] == "cell census: sigma0=1 sigma1=10 sigma2=10 sigma3=1"
    assert lines[2] == "euler characteristic 0: closed orientable 3-manifold"
    assert lines[3] == "vertex class P1: 12 vertices"
    assert sum(1 for l in lines if l.startswith("edge class ")) == 10
    assert all(l.endswith(": 3 edges") for l in lines[4:])


def test_cli_analyze_verbose_traces(capsys):
    code, out, _ = run_cli(capsys, "-v", "analyze", "--family", "m24",
                           "--n", "2")
    assert code == 0
    assert "cycle word" in out
    vertex_line = next(l for l in out.splitlines()
                       if l.startswith("vertex class"))
    assert "(" in vertex_line and "P1" in vertex_line


def test_cli_pi1_modes(capsys):
    code, out, _ = run_cli(capsys, "pi1", "--family", "m24", "--n", "1")
    assert code == 0
    assert out == ("gens: a1 b1 c1 d\n"
                   "rel: a1 b1 -d\n"
                   "rel: a1\n"
                   "rel: a1 -c1 -b1\n"
                   "rel: b1 -c1 -c1\n")
    assert parse_presentation(out) == presentation_from_pairings(build_m24(1))

    code, out, _ = run_cli(capsys, "pi1", "--family", "m25", "--n", "2",
                           "--mode", "cw")
    assert code == 0
    assert parse_presentation(out) == presentation_from_cw(build_m25(2))


def test_cli_pi1_simplify(capsys):
    code, out, _ = run_cli(capsys, "pi1", "--family", "m24", "--n", "1",
                           "--simplify")
    assert code == 0 and out == "gens: d\nrel: d d d\n"


def test_cli_symmetry(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "--family", "m25", "--n", "6",
                           "--step", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rotation step 2 on m25(6): degree 3 cover of m25(2)"
    assert lines[1] == "singular components:"
    assert lines[2] == ("  collapsed-edge-class at edge class A1.2: "
                        "branching index 3")
    assert lines[3] == ("  collapsed-edge-class at edge class A2.2: "
                        "branching index 3")
    assert lines[4] == "  rotation-axis at axis: branching index 3"
    assert lines[5] == "strongly cyclic: yes"
    assert lines[6].startswith("note: ")


def test_cli_symmetry_trivial_cover(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "--family", "m24", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rotation step 1 on m24(1): degree 1 cover of m24(1)"
    assert lines[1] == "singular components: none"
    assert lines[2] == "strongly cyclic: no"
    assert len(lines) == 3


def test_cli_table(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "m24",
                           "--from", "1", "--to", "6")
    assert code == 0
    lines = out.splitlines()
    header = [cell.strip() for cell in lines[0].split("|")]
    assert header == ["n", "H1", "singular components", "volume"]
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[1:7]]
    assert [row[1] for row in rows] == [
        "Z3", "Z3 + Z6", "Z9", "Z3 + Z12", "Z5 + Z5 + Z15", "Z3 + Z9 + Z18"]
    assert [row[3] for row in rows] == ["external"] * 6
    assert rows[0][2] == "none"
    assert rows[4][2] == "2 components, index 5"
    assert lines[7] == ("volume: not computed here; requires external "
                        "hyperbolic-geometry software")


def test_cli_table_builds_each_member_once(capsys, monkeypatch):
    built = []

    def counted(n, _build=families.build_m25):
        built.append(n)
        return _build(n)

    monkeypatch.setattr(families, "build_m25", counted)
    code, _, _ = run_cli(capsys, "table", "--family", "m25",
                         "--from", "3", "--to", "6")
    assert code == 0
    # the report shares the row's member; only the bases are built again
    assert [n for n in built if n > 2] == [3, 4, 5, 6]


@pytest.mark.parametrize("first, last, builds", [
    (3, 6, [1, 2, 3, 4, 5, 6]),
    (1, 12, list(range(1, 13))),
])
def test_cli_table_holds_each_base_for_the_whole_table(
        capsys, monkeypatch, first, last, builds):
    built = []

    def counted(n, _build=families.build_m25):
        built.append(n)
        return _build(n)

    # a fresh live-member map, so no member held elsewhere is reused
    monkeypatch.setattr(families, "_LIVE", weakref.WeakValueDictionary())
    monkeypatch.setattr(families, "build_m25", counted)
    code, out, _ = run_cli(capsys, "table", "--family", "m25",
                           "--from", str(first), "--to", str(last))
    assert code == 0
    assert sorted(built) == builds
    if first == 3:
        assert out == (
            "n | H1            | singular components   | volume\n"
            "3 | Z2 + Z18      | 2 components, index 3 | external\n"
            "4 | Z3 + Z3 + Z6  | 3 components, index 2 | external\n"
            "5 | Z5 + Z5 + Z15 | 2 components, index 5 | external\n"
            "6 | Z8 + Z72      | 3 components, index 3 | external\n"
            "volume: not computed here; requires external "
            "hyperbolic-geometry software\n")


def test_cli_table_m25_uses_even_step(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "m25",
                           "--from", "1", "--to", "6")
    assert code == 0
    rows = [[cell.strip() for cell in line.split("|")]
            for line in out.splitlines()[1:7]]
    assert [row[1] for row in rows] == [
        "Z3", "Z3", "Z2 + Z18", "Z3 + Z3 + Z6", "Z5 + Z5 + Z15", "Z8 + Z72"]
    assert [row[2] for row in rows] == [
        "none", "none", "2 components, index 3", "3 components, index 2",
        "2 components, index 5", "3 components, index 3"]


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("argv, code, out", [
    (["h1", "--family", "m24", "--n", "6"], 0, "Z3 + Z9 + Z18\n"),
    (["h1", "--family", "m24", "--n", "0"], 1, ""),
    (["h1", "--family", "m24"], 2, ""),
])
def test_python_m_pairglue_exit_codes(argv, code, out):
    done = subprocess.run([sys.executable, "-m", "pairglue", *argv],
                          capture_output=True, text=True, cwd=SRC,
                          timeout=60)
    assert (done.returncode, done.stdout) == (code, out), done.stderr
    if code:
        assert done.stderr


def test_cli_gen_roundtrip(tmp_path, capsys):
    target = tmp_path / "m25_3.pgv1"
    code, out, _ = run_cli(capsys, "gen", "--family", "m25", "--n", "3",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert parse_complex(target.read_text()).same_structure(build_m25(3))
    code, out, _ = run_cli(capsys, "gen", "--family", "m25", "--n", "3")
    assert code == 0
    assert out == target.read_text()


def test_cli_gen_unwritable_out_exits_one(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.pgv1", tmp_path):
        code, out, err = run_cli(capsys, "gen", "--family", "m24", "--n", "2",
                                 "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")


def test_cli_domain_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "--family", "m24", "--n", "0")
    assert code == 1 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "symmetry", "--family", "m25", "--n", "5",
                           "--step", "2")
    assert code == 1 and "even" in err
    code, _, err = run_cli(capsys, "table", "--family", "m24",
                           "--from", "3", "--to", "2")
    assert code == 1 and "1 <= from <= to" in err
    code, out, err = run_cli(capsys, "pi1", "--simplify", "--family", "m25",
                             "--n", "100")
    assert code == 1 and out == ""
    assert err.startswith("error: simplification grew the relators")


def test_cli_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "h1", "--family", "m26", "--n", "1")[0] == 2
    assert run_cli(capsys, "h1", "--family", "m24")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "symmetry", "--family", "m25", "--n", "4",
                   "--step", "3")[0] == 2


def test_cli_internal_errors_exit_seventy(capsys, monkeypatch):
    from pairglue import io_cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(io_cli, "_cmd_h1", broken)
    code, out, err = run_cli(capsys, "h1", "--family", "m24", "--n", "2")
    assert code == io_cli.EX_SOFTWARE == 70
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"
    code, _, err = run_cli(capsys, "-v", "h1", "--family", "m24", "--n", "2")
    assert code == 70
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("internal error: RuntimeError: boom\n")
