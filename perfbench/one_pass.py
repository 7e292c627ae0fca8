"""One pass of a pairglue benchmark workload, in a fresh interpreter.

Usage, from the root of a checkout::

    python3 perfbench/one_pass.py WORKLOAD SEED INDEX TRACE

Each pass runs in a process of its own, so nothing the library caches
carries over from one pass to the next.  The inputs come from SEED and the
order of the pass's items from (SEED, INDEX).  It prints one JSON object:
the workload's largest members, operation counts and failures, the exact
counters, the seconds of every
operation and of the speed probe around it keyed by (item, sequence
number), the pass's wall time and the benchmark's own overhead within it,
the process's peak resident memory and, when TRACE is 1, the spans.
"""

import contextlib
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

from harness import Pass, Tracer, instrumented

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_library():
    """Import pairglue from the checkout's ``src/``; exit 1 when it is absent."""
    if not (SRC / "pairglue" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pairglue sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pairglue
    if Path(pairglue.__file__).resolve().parent != SRC / "pairglue":
        sys.exit(f"perfbench: pairglue imported from {pairglue.__file__}, not {SRC}")


def run_pass(name, seed, index, tracer=None):
    """Make pass ``index`` of workload ``name`` for ``seed``; return the Pass."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(random.Random(seed))
    order = random.Random(f"{seed}:{index}")
    gc.collect()
    p = Pass(tracer)
    start = time.perf_counter()
    with instrumented(tracer) if tracer else contextlib.nullcontext():
        workload.run(p, inputs, order)
    p.wall_s = time.perf_counter() - start
    return p


def main(argv):
    name, seed, index, trace = argv
    load_library()
    from workloads import WORKLOADS

    p = run_pass(name, int(seed), int(index), Tracer() if trace == "1" else None)
    print(json.dumps({
        "largest": WORKLOADS[name].largest,
        "attempted": p.attempted,
        "failures": p.failures,
        "mismatches": p.mismatches,
        "counters": p.counters,
        "wall_s": p.wall_s,
        "overhead_s": p.overhead_s,
        "ops": [[item, seq, *timing] for (item, seq), timing in p.op_s.items()],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": p.tracer.spans if p.tracer else None,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
