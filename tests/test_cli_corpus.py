"""Every command line of the corpus prints what it printed when recorded."""

import json

from cli_corpus import CORPUS_PATH, command_lines, digests


def test_corpus_lists_every_command_line():
    recorded = json.loads(CORPUS_PATH.read_text())
    assert list(recorded) == [" ".join(argv) for argv in command_lines()]


def test_cli_output_matches_the_corpus():
    recorded = json.loads(CORPUS_PATH.read_text())
    current = digests()
    assert [line for line in recorded if current[line] != recorded[line]] == []
