"""Self-tests of the benchmark: exact counters, failure accounting, tracing,
the Smith-normal-form check.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  The
counter test makes one traced pass of every workload per seed, which takes
about a minute.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import one_pass  # noqa: E402
import run  # noqa: E402
from harness import Pass, Tracer, instrumented, self_times  # noqa: E402

one_pass.load_library()
import pairglue as pg  # noqa: E402
import workloads  # noqa: E402

PROBE_FAILURE = ("symmetry.rotation", ("m24", 170))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_exact_counters_repeat_across_runs(name):
    counters = []
    for seed in (1, 2):
        p = one_pass.run_pass(name, seed, 0, Tracer())
        assert p.mismatches == 0, p.failures
        assert [(op, item) for op, item, _ in p.failures] == (
            [PROBE_FAILURE] if name == "large_member" else [])
        counters.append(run.counters_of({"counters": p.counters,
                                         "failures": p.failures}))
    assert counters[0] == counters[1]
    assert any(counters[0].values())


def test_failed_operation_aborts_its_item_and_is_counted():
    def body(p):
        p.op("layer.ok", abs, -1, check=lambda v: v != 1 and "wrong")
        p.op("layer.raises", int, "not a number")
        p.op("layer.unreached", abs, 0)

    def wrong(p):
        p.op("layer.wrong", abs, -2, check=lambda v: v != 3 and "mismatch")

    p = Pass()
    p.run_item(("m24", 1), body)
    p.run_item(("m24", 2), wrong)
    assert p.attempted == 3
    assert [(name, item) for name, item, _ in p.failures] == [
        ("layer.raises", ("m24", 1)), ("layer.wrong", ("m24", 2))]
    assert p.mismatches == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    parent = tracer.open("item", "body", ("m24", 1), None)
    child = tracer.open("layer.op", "fn", ("m24", 1), 0)
    assert child["parent"] == parent["id"]
    time.sleep(0.01)
    tracer.close(child)
    tracer.close(parent)
    times = self_times(tracer.spans)
    assert times[child["id"]] == pytest.approx(child["end"] - child["start"])
    assert times[parent["id"]] == pytest.approx(
        (parent["end"] - parent["start"]) - (child["end"] - child["start"]))


def test_nested_library_calls_open_child_spans():
    tracer = Tracer()
    p = Pass(tracer)
    with instrumented(tracer):
        p.run_item(("m24", 4), lambda p: p.op(
            "symmetry.report", pg.singularity_report, "m24", 4, 1,
            check=lambda r: workloads.report_problem(r, "m24", 4, 1)))
    assert not hasattr(pg.rotation, "traced_original")
    assert p.failures == []
    report = next(s for s in tracer.spans if s["name"] == "symmetry.report")
    children = {s["name"] for s in tracer.spans if s["parent"] == report["id"]}
    assert {"symmetry.rotation", "symmetry.quotient",
            "complex_core.orbits"} <= children
    nested = [s for s in tracer.spans if s["seq"] is not None]
    assert all(s["item"] == ("m24", 4) and s["seq"] == 0 for s in nested)
    assert [s["name"] for s in nested].count("symmetry.report") == 1
    times = self_times(tracer.spans)
    assert 0 < times[report["id"]] < report["end"] - report["start"]


def test_snf_check_rejects_broken_outputs():
    rng = random.Random(5)
    matrix = pg.IntegerMatrix([[rng.randint(-9, 9) for _ in range(5)]
                               for _ in range(5)])
    d, u, v = pg.smith_normal_form(matrix)
    assert workloads.snf_problem(matrix, (d, u, v)) is None
    zero = pg.IntegerMatrix([[0] * 5 for _ in range(5)])
    assert workloads.snf_problem(matrix, (zero, zero, zero))
    doubled = pg.IntegerMatrix([[2 * x for x in row] for row in u.rows])
    twice_d = pg.IntegerMatrix([[2 * x for x in row] for row in d.rows])
    assert workloads.snf_problem(matrix, (twice_d, doubled, v))
    for _ in range(20):
        m = pg.IntegerMatrix([[rng.randint(-5, 5) for _ in range(6)]
                              for _ in range(6)])
        assert workloads.determinant(m.rows) == m.determinant()


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "homcount", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
