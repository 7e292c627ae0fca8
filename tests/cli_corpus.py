"""The command-line byte-identity corpus: regenerate it, or check against it.

The corpus holds, for each command line below, the sha256 of the exit
code, the standard output and the standard error of that run, made
in-process through ``pairglue.io_cli.main``.  The runs are ``gen``,
``-v analyze``, ``pi1`` in both modes with and without ``--simplify``,
``h1`` in both modes, ``symmetry`` with every valid step, for both families
and n = 1..12, and ``table`` from 1 to 12 for both families.  A few runs
that end in exit 1 (a ``PairglueError``) follow them.  Runs that argparse
refuses (exit 2) are left out: their text differs across Python versions.
A change that means to keep every output byte-identical must leave every
digest as it is.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tests/cli_corpus.py           # rewrite the corpus
    PYTHONPATH=src python3 tests/cli_corpus.py --check   # exit 1 on a change

``tests/test_cli_corpus.py`` runs the check as part of the test suite.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

CORPUS_PATH = Path(__file__).resolve().parent / "cli_corpus.json"
FAMILIES = ("m24", "m25")
SIZES = range(1, 13)
# runs that end in exit 1 with a message on standard error
ERROR_LINES = (
    ["analyze", "--family", "m24", "--n", "0"],
    ["symmetry", "--family", "m24", "--n", "3", "--step", "2"],
    ["table", "--family", "m25", "--from", "3", "--to", "2"],
)


def command_lines():
    """Every command line of the corpus, in a fixed order."""
    lines = []
    for family in FAMILIES:
        for n in SIZES:
            member = ["--family", family, "--n", str(n)]
            lines.append(["gen", *member])
            lines.append(["-v", "analyze", *member])
            for mode in ("pairing", "cw"):
                lines.append(["pi1", *member, "--mode", mode])
                lines.append(["pi1", *member, "--mode", mode, "--simplify"])
            for mode in ("pairing", "cw"):
                lines.append(["h1", *member, "--mode", mode])
            for step in (1, 2) if n % 2 == 0 else (1,):
                lines.append(["symmetry", *member, "--step", str(step)])
        lines.append(["table", "--family", family, "--from", "1",
                      "--to", str(SIZES[-1])])
    lines.extend(ERROR_LINES)
    return lines


def digest(argv):
    """The sha256 of one run's exit code, standard output and standard error."""
    from pairglue.io_cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    """The digest of every command line, keyed by the line."""
    return {" ".join(argv): digest(argv) for argv in command_lines()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print("usage: cli_corpus.py [--check]", file=sys.stderr)
        return 2
    current = digests()
    if not argv:
        CORPUS_PATH.write_text(json.dumps(current, indent=1) + "\n")
        print(f"wrote {len(current)} digests to {CORPUS_PATH}")
        return 0
    recorded = json.loads(CORPUS_PATH.read_text())
    changed = sorted(line for line in recorded.keys() | current.keys()
                     if recorded.get(line) != current.get(line))
    for line in changed:
        print(f"changed: {line}")
    print(f"{len(changed)} of {len(recorded)} runs changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
