"""The three workloads of the pairglue benchmark.

A workload has ``make_inputs(rng)``, which derives its inputs from the seed,
and ``run(pass_, inputs, rng)``, which makes one pass over a fixed list of
operations in an order drawn from ``rng``.  The library receives only the
generated inputs.  Each operation's output is checked against a reference
that does not come from the operation itself:

* the criterion-1 and criterion-2 homology goldens of the acceptance suite,
  and the seed's outputs for the n = 50 and 100 members (regression goldens);
* H1 by the pairing route against H1 by the CW route;
* homomorphism counts of the raw presentation against those of the scripted
  reduction, and for abelian targets against the count that H1 determines;
* ``same_structure`` after a serialize/parse round trip, and of a rotation
  quotient against the base member;
* the criterion-3 cell census and the criterion-6 singular-set shapes;
* U and V unimodular, U·A·V = D and the divisibility chain for the Smith
  normal form.

The largest factor of H1(m25(n)) is not assumed to be the Fibonacci number
F_n: m25(25) has ``... + Z75025 + Z225075``, whose largest factor is 3·F_25.
"""

import contextlib
import io
import re
from collections import namedtuple
from math import gcd, prod

import pairglue as pg
from pairglue.io_cli import main as cli_main

FAMILIES = ("m24", "m25")

CRITERION_1_H1 = {
    ("m24", 3): "Z9",
    ("m24", 4): "Z3 + Z12",
    ("m24", 5): "Z5 + Z5 + Z15",
    ("m24", 6): "Z3 + Z9 + Z18",
    ("m25", 3): "Z2 + Z18",
    ("m25", 4): "Z3 + Z3 + Z6",
    ("m25", 5): "Z5 + Z5 + Z15",
    ("m25", 6): "Z8 + Z72",
}
CRITERION_2_H1 = {("m24", 1): "Z3", ("m25", 1): "Z3", ("m25", 2): "Z3"}
# Outputs of the seed release, the n = 50 ones also equal by the CW route.
LARGE_H1 = {
    ("m24", 50): "Z25 + Z51952575 + Z103905150",
    ("m24", 100): "Z25 + Z117893952297075 + Z471575809188300",
    ("m25", 50): "Z25 + Z12586269025 + Z37758807075",
    ("m25", 100): "Z75 + Z354224848179261915075 + Z708449696358523830150",
}
GOLDEN_H1 = {**CRITERION_1_H1, **CRITERION_2_H1, **LARGE_H1}


def differ(actual, expected):
    if actual == expected:
        return None
    return f"got {actual!r}, expected {expected!r}"


def sigma(family, n):
    """Criterion 3: the cell census (sigma0..sigma3) of a family member."""
    if family == "m25" and n % 2 == 0:
        return (2, 3 * n + 2, 3 * n + 1, 1)
    return (1, 3 * n + 1, 3 * n + 1, 1)


def default_step(family, n):
    """The rotation step the CLI table uses."""
    return 2 if family == "m25" and n % 2 == 0 else 1


def criterion_6_shape(family, n, step):
    """(component count, common branching index) where criterion 6 states one."""
    degree = n // gcd(n, step)
    if degree == 1:
        return (0, None)
    if step == 1 and (family == "m24" or n % 2):
        return (2, n)
    if step == 2 and n >= 4:
        return (3, n // 2)
    return None


def report_problem(report, family, n, step):
    degree = n // gcd(n, step)
    if report.covering_degree != degree:
        return differ(report.covering_degree, degree)
    indices = [c.branching_index for c in report.components]
    shape = criterion_6_shape(family, n, step)
    if shape is None:
        if all(1 < i and degree % i == 0 for i in indices):
            return None
        return f"branching indices {indices} do not divide degree {degree}"
    count, index = shape
    if len(indices) != count or any(i != index for i in indices):
        return differ(indices, [index] * count)
    if count and not pg.strongly_cyclic(report):
        return "report is not strongly cyclic"
    return None


def relator_len(presentation):
    return sum(len(relator) for relator in presentation.relators)


def h1_op(p, presentation, check):
    group = p.op("homology.h1", pg.h1, presentation, check=check)
    p.count("homology.matrix_cells",
            len(presentation.generators) * len(presentation.relators))
    p.maximum("homology.max_factor_bits",
              max((d.bit_length() for d in group.invariant_factors), default=0))
    return group


def presentation_op(p, name, fn, complex_):
    presentation = p.op(name, fn, complex_)
    p.count("presentations.relator_len", relator_len(presentation))
    return presentation


def run_cli(argv):
    """The in-process command line: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- paper_sweep

SWEEP_N = range(1, 51)
PIPELINE_N = range(1, 13)


def sweep_member(p, family, n):
    counts = sigma(family, n)
    c = p.op("families.build", pg.build_family, family, n)
    p.op("complex_core.validate", pg.validate, c, check=lambda v: differ(v, []))
    p.op("complex_core.census", pg.cell_counts, c,
         check=lambda v: differ(tuple(v), counts))
    p.op("complex_core.census", pg.is_manifold, c,
         check=lambda v: differ(v, (True, 0)))
    edges = p.op("complex_core.orbits", pg.edge_orbits, c,
                 check=lambda v: differ(len(v), counts[1]))
    p.count("complex_core.edge_classes", len(edges))
    p.op("complex_core.orbits", pg.vertex_orbits, c,
         check=lambda v: differ(len(v), counts[0]))
    if n in PIPELINE_N:
        member_pipeline(p, family, n, c)


def member_pipeline(p, family, n, c):
    pairing = presentation_op(p, "presentations.pairing",
                              pg.presentation_from_pairings, c)
    cw = presentation_op(p, "presentations.cw", pg.presentation_from_cw, c)
    golden = GOLDEN_H1.get((family, n))
    by_pairing = h1_op(p, pairing, check=lambda g: golden and differ(str(g), golden))
    h1_op(p, cw, check=lambda g: differ(str(g), str(by_pairing)))
    p.results[(family, n)] = str(by_pairing)

    auto = p.op("symmetry.rotation", pg.rotation, family, n,
                check=lambda a: differ(a.order, n))
    base = p.reference(pg.build_family, family, 1)
    p.op("symmetry.quotient", pg.quotient_complex, auto.domain, auto,
         check=lambda q: None if q.same_structure(base)
         else "quotient differs from the base member")
    for step in (1, 2) if family == "m25" and n % 2 == 0 else (1,):
        p.op("symmetry.report", pg.singularity_report, family, n, step,
             check=lambda r, step=step: report_problem(r, family, n, step))

    doc = p.op("io_cli.serialize", pg.serialize_complex, c)
    p.count("io_cli.doc_bytes", len(doc.encode()))
    p.op("io_cli.parse", pg.parse_complex, doc,
         check=lambda parsed: None if parsed.same_structure(c)
         else "round trip changed the structure")


def table_problem(p, family, result):
    code, out = result
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[1:-1]]
    if [row[0] for row in rows] != [str(n) for n in PIPELINE_N]:
        return "table rows do not cover n = 1..12"
    for n, (_, homology, singular, volume) in zip(PIPELINE_N, rows):
        for expected in (p.results.get((family, n)), GOLDEN_H1.get((family, n))):
            if expected and homology != expected:
                return f"n={n}: H1 {differ(homology, expected)}"
        count, index = criterion_6_shape(family, n, default_step(family, n))
        expected = "none" if not count else f"{count} components, index {index}"
        if singular != expected or volume != "external":
            return f"n={n}: row {differ([singular, volume], [expected, 'external'])}"
    if not lines[-1].startswith("volume: not computed here"):
        return "missing volume note"
    return None


def analyze_problem(family, n, result):
    code, out = result
    if code != 0:
        return f"exit code {code}"
    s0, s1, s2, s3 = sigma(family, n)
    for line in (f"cell census: sigma0={s0} sigma1={s1} sigma2={s2} sigma3={s3}",
                 "euler characteristic 0: closed orientable 3-manifold"):
        if line not in out.splitlines():
            return f"missing line {line!r}"
    found = (out.count("\nvertex class "), out.count("\nedge class "))
    return differ(found, (s0, s1))


def cli_table(p, family):
    argv = ["table", "--family", family, "--from", str(PIPELINE_N[0]),
            "--to", str(PIPELINE_N[-1])]
    p.op("io_cli.cli", run_cli, argv, check=lambda r: table_problem(p, family, r))


def cli_analyze(p, family):
    n = PIPELINE_N[-1]
    argv = ["-v", "analyze", "--family", family, "--n", str(n)]
    p.op("io_cli.cli", run_cli, argv, check=lambda r: analyze_problem(family, n, r))


def sweep_inputs(rng):
    return None


def sweep_run(p, inputs, rng):
    members = [(family, n) for n in SWEEP_N for family in FAMILIES]
    rng.shuffle(members)
    for family, n in members:
        p.run_item((family, n), sweep_member, family, n)
    # The CLI checks compare against the H1 values the members produced.
    commands = [(family, body) for family in FAMILIES
                for body in (cli_table, cli_analyze)]
    rng.shuffle(commands)
    for family, body in commands:
        p.run_item((family, "cli"), body, family)


# --------------------------------------------------------------- large_member

LARGE_N = (50, 100)
CW_CHECK_N = 50
SNF_MATRICES = 20
SNF_SIZE = 20
SNF_ENTRY = 20
REACH_PROBE = ("m24", 170)


def large_member(p, family, n):
    c = p.op("families.build", pg.build_family, family, n)
    pairing = presentation_op(p, "presentations.pairing",
                              pg.presentation_from_pairings, c)
    cw = presentation_op(p, "presentations.cw", pg.presentation_from_cw, c)
    golden = GOLDEN_H1[(family, n)]
    by_pairing = h1_op(p, pairing, check=lambda g: differ(str(g), golden))
    if n == CW_CHECK_N:
        h1_op(p, cw, check=lambda g: differ(str(g), str(by_pairing)))
    step = default_step(family, n)
    p.op("symmetry.report", pg.singularity_report, family, n, step,
         check=lambda r: report_problem(r, family, n, step))


def determinant(rows):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(row) for row in rows]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("matrix is not square")
    sign, previous = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if size else 1


def snf_problem(matrix, result):
    """None when (D, U, V) is the Smith normal form of ``matrix``.

    With U and V unimodular, U·A·V = D, D diagonal and its diagonal a
    nonnegative divisibility chain, D is the unique Smith normal form.
    """
    d, u, v = result
    for name, factor in (("U", u), ("V", v)):
        if abs(determinant(factor.rows)) != 1:
            return f"{name} is not unimodular"
    if u * matrix * v != d:
        return "U*A*V != D"
    rows = d.rows
    if any(rows[i][j] for i in range(len(rows)) for j in range(len(rows[i]))
           if i != j):
        return "D is not diagonal"
    diagonal = [rows[i][i] for i in range(min(len(rows), len(rows[0])))]
    if any(x < 0 for x in diagonal):
        return f"diagonal {diagonal} has a negative entry"
    for a, b in zip(diagonal, diagonal[1:]):
        if b % a if a else b:
            return f"diagonal {a}, {b} breaks the divisibility chain"
    return None


def snf_matrix(p, matrix):
    p.op("homology.snf", pg.smith_normal_form, matrix,
         check=lambda r: snf_problem(matrix, r))


def reach_probe(p, family, n):
    p.op("symmetry.rotation", pg.rotation, family, n,
         check=lambda a: differ(a.order, n))


def large_inputs(rng):
    return [pg.IntegerMatrix([[rng.randint(-SNF_ENTRY, SNF_ENTRY)
                               for _ in range(SNF_SIZE)]
                              for _ in range(SNF_SIZE)])
            for _ in range(SNF_MATRICES)]


def large_run(p, matrices, rng):
    items = [((family, n), large_member, family, n)
             for family in FAMILIES for n in LARGE_N]
    items += [(("snf", i), snf_matrix, m) for i, m in enumerate(matrices)]
    items.append((REACH_PROBE, reach_probe, *REACH_PROBE))
    rng.shuffle(items)
    for item, body, *args in items:
        p.run_item(item, body, *args)


# ------------------------------------------------------------------- homcount

HOMCOUNT_MEMBERS = (("m24", 6), ("m25", 8))
ABELIAN_NAME = re.compile(r"Z\d+(xZ\d+)*")


def abelian_count(group, name):
    """|Hom(G, A)| for an abelian target A named like ``Z4xZ2``, from H1(G)."""
    orders = [int(part[1:]) for part in name.split("x")]
    return prod(gcd(d, a) for d in group.invariant_factors for a in orders) \
        * prod(a ** group.rank for a in orders)


def homcount_member(p, family, n, tables, rng):
    c = p.op("families.build", pg.build_family, family, n)
    raw = presentation_op(p, "presentations.pairing",
                          pg.presentation_from_pairings, c)
    group = p.reference(pg.h1, raw)
    reduced = p.op("presentations.scripted", pg.reduced_family_presentation,
                   family, n, check=lambda r: differ(pg.h1(r), group))
    simplified = p.op("presentations.simplify", pg.auto_simplify, raw,
                      check=lambda r: differ(pg.h1(r), group))
    p.count("presentations.simplify_len_in", relator_len(raw))
    p.count("presentations.simplify_len_out", relator_len(simplified))

    names = list(tables)
    rng.shuffle(names)
    for name in names:
        table = tables[name]
        expected = abelian_count(group, name) if ABELIAN_NAME.fullmatch(name) else None
        count = p.op("homcount.count_raw", pg.count_homomorphisms, raw, table,
                     check=lambda k: expected is not None and differ(k, expected))
        p.op("homcount.count_reduced", pg.count_homomorphisms, reduced, table,
             check=lambda k: differ(k, count))
        p.count("homcount.homs_total", count)


def homcount_inputs(rng):
    return pg.small_groups()


def homcount_run(p, tables, rng):
    members = list(HOMCOUNT_MEMBERS)
    rng.shuffle(members)
    for family, n in members:
        p.run_item((family, n), homcount_member, family, n, tables, rng)


# ``largest`` names the members with the workload's largest n: largest_s.
Workload = namedtuple("Workload", ["make_inputs", "run", "largest"])

WORKLOADS = {
    "paper_sweep": Workload(sweep_inputs, sweep_run,
                            [(family, SWEEP_N[-1]) for family in FAMILIES]),
    "large_member": Workload(large_inputs, large_run,
                             [(family, LARGE_N[-1]) for family in FAMILIES]),
    "homcount": Workload(homcount_inputs, homcount_run, [HOMCOUNT_MEMBERS[-1]]),
}
