"""Run one workload of the pairglue benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 38 --trace 0

pairglue is imported from ``src/`` of the checkout, so nothing is installed;
without that directory the run exits with code 1 and prints no result.  The
run makes whole passes over the workload, each in a fresh interpreter (see
``one_pass.py``), and stops before a pass would end more than ``--seconds``
after the run started.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes, reports the per-layer metrics from
the traced ones and writes their spans to ``perfbench/out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from harness import PROBE_REFERENCE_S, self_times
from one_pass import HERE, SRC

ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("paper_sweep", "large_member", "homcount")

SETUP_RUNS = 15
SETUP_SNIPPET = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from harness import PROBE_REFERENCE_S, probe_seconds
before = probe_seconds()
start = time.perf_counter()
import pairglue
pairglue.small_groups()
elapsed = time.perf_counter() - start
print(elapsed * PROBE_REFERENCE_S / ((before + probe_seconds()) / 2))
"""

LAYER_SPANS = (
    "families.build",
    "complex_core.validate", "complex_core.census", "complex_core.orbits",
    "presentations.pairing", "presentations.cw",
    "presentations.simplify", "presentations.scripted",
    "homology.h1", "homology.snf",
    "homcount.count_raw", "homcount.count_reduced",
    "symmetry.rotation", "symmetry.quotient", "symmetry.report",
    "io_cli.serialize", "io_cli.parse", "io_cli.cli",
)
LAYER_COUNTERS = (
    "complex_core.edge_classes", "presentations.relator_len",
    "presentations.simplify_len_out", "homology.matrix_cells",
    "homology.max_factor_bits", "homcount.homs_total", "io_cli.doc_bytes",
)


def measure_setup():
    """Scaled seconds of ``import pairglue`` + ``small_groups()``, fresh interpreters."""
    command = [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(HERE)]
    subprocess.run(command, check=True, capture_output=True)  # fills bytecode caches
    return [float(subprocess.run(command, check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(SETUP_RUNS)]


def spawn_pass(workload, seed, index, trace):
    command = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
               str(index), str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: pass {index} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def scaled(seconds, probe):
    """Seconds at the host's quiet speed: see ``harness.probe_seconds``."""
    return seconds * PROBE_REFERENCE_S / probe


def op_seconds(p, only_largest=False, raw=False):
    """Seconds of a pass's operations, or of its largest members', scaled
    unless ``raw``."""
    largest = {tuple(item) for item in p["largest"]}
    return sum(seconds if raw else scaled(seconds, probe)
               for item, _, _, seconds, probe in p["ops"]
               if not only_largest or tuple(item) in largest)


def own_seconds(p):
    """Scaled wall time of a pass without the benchmark's own overhead."""
    probe = statistics.median(op[4] for op in p["ops"])
    return scaled(p["wall_s"] - p["overhead_s"], probe)


def layer_seconds(p):
    """Scaled self time per layer of one traced pass.

    Operation spans and the spans of nested library calls count, each scaled
    by the speed probes around its operation; item spans do not.
    """
    probes = {(tuple(item), seq): probe for item, seq, _, _, probe in p["ops"]}
    totals = dict.fromkeys(LAYER_SPANS, 0.0)
    for span_id, seconds in self_times(p["spans"]).items():
        span = p["spans"][span_id]
        if span["name"] in totals:
            probe = probes[(tuple(span["item"]), span["seq"])]
            totals[span["name"]] += scaled(seconds, probe)
    return totals


def counters_of(p):
    counters = {name: p["counters"].get(name, 0) for name in LAYER_COUNTERS}
    len_in = p["counters"].get("presentations.simplify_len_in", 0)
    counters["presentations.simplify_growth"] = (
        counters["presentations.simplify_len_out"] / len_in if len_in else 0.0)
    counters["symmetry.failed"] = sum(1 for name, _, _ in p["failures"]
                                      if name.startswith("symmetry."))
    return counters


def describe(values):
    """Median, quartiles and sample count, for the human-readable lines."""
    text = f"median {statistics.median(values):.6f} n={len(values)}"
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6f} q3={q3:.6f}"
    return text


def end_to_end(untraced, setup):
    attempted = sum(p["attempted"] for p in untraced)
    failed = sum(len(p["failures"]) for p in untraced)
    passes = [op_seconds(p) for p in untraced]
    largest = [op_seconds(p, only_largest=True) for p in untraced]
    raw_passes = [op_seconds(p, raw=True) for p in untraced]
    raw_largest = [op_seconds(p, only_largest=True, raw=True) for p in untraced]
    for index, (seconds, raw) in enumerate(zip(passes, raw_passes)):
        print(f"pass {index}: scale factor {seconds / raw:.4f} "
              f"(raw {raw:.6f} s, scaled {seconds:.6f} s)")
    print(f"setup_s samples: {describe(setup)}")
    print(f"pass_s samples: {describe(passes)}")
    print(f"largest_s samples: {describe(largest)}")
    print(f"raw pass_s samples: {describe(raw_passes)}")
    print(f"raw largest_s samples: {describe(raw_largest)}")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "largest_s": (statistics.median(largest), "s"),
        "ops_ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in untraced), "MB"),
    }


def per_layer(traced, untraced):
    layers = [layer_seconds(p) for p in traced]
    metrics = {f"{name}_s": (statistics.median(t[name] for t in layers), "s")
               for name in LAYER_SPANS}
    for name, value in counters_of(traced[0]).items():
        metrics[name] = (value, "ratio" if name.endswith("growth") else "count")
    ratio = (statistics.median(own_seconds(p) for p in traced)
             / statistics.median(own_seconds(p) for p in untraced))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def write_spans(traced, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, p in enumerate(traced):
            for span in p["spans"]:
                handle.write(json.dumps({"pass": index, **span}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pairglue" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pairglue sources under {SRC}")

    start = time.perf_counter()
    setup = None if args.trace else measure_setup()
    untraced, traced = [], []
    min_steps = 1 if args.trace else 2
    while True:
        step_start = time.perf_counter()
        index = len(untraced) + len(traced)
        untraced.append(spawn_pass(args.workload, args.seed, index, 0))
        if args.trace:
            traced.append(spawn_pass(args.workload, args.seed, index + 1, 1))
        now = time.perf_counter()
        if (len(untraced) >= min_steps
                and now - start + (now - step_start) > args.seconds):
            break
    passes = untraced + traced

    failures = {}
    for p in passes:
        for name, item, reason in p["failures"]:
            key = (name, str(item), reason)
            failures[key] = failures.get(key, 0) + 1
    for (name, item, reason), times in sorted(failures.items()):
        print(f"FAILED {name} {item} x{times}: {reason}")
    repeat = all(counters_of(p) == counters_of(passes[0]) for p in passes)
    if not repeat:
        print("MISMATCH: the exact counters differ between passes")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced passes in {time.perf_counter() - start:.1f} s")

    if args.trace:
        metrics = per_layer(traced, untraced)
        write_spans(traced, args.workload, args.seed)
    else:
        metrics = end_to_end(untraced, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": repeat and not any(p["mismatches"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
