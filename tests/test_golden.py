"""Byte-identity as a test: every run of the golden corpus writes the bytes
whose sha256 ``tests/golden/digests.json`` records.

The digests hold only on the numerical stack they were generated on (see
``golden/corpus.py``).  Every run executes on any stack, and fails the test
if it exits nonzero; on another stack the test then skips the comparison,
naming what differs and how many digests it did not compare, so that it
never passes without comparing.  A change that means to move an output regenerates the
digests with ``python3 tests/golden/corpus.py`` and names the moved runs,
and why, in CHANGES.md.
"""

import json

import pytest

from golden import corpus


def test_golden_corpus_is_byte_identical():
    recorded = json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))
    assert set(recorded["runs"]) == set(corpus.runs()), "digests.json and the run list disagree"
    digests = corpus.compute()
    differences = corpus.stack_differences(recorded["stack"], corpus.stack())
    if differences:
        count = sum(map(len, recorded["runs"].values()))
        pytest.skip(f"numerical stack differs from the corpus's ({'; '.join(differences)}); "
                    f"{count} digests of {len(recorded['runs'])} runs not compared")
    moved = sorted(name for name in recorded["runs"] if digests[name] != recorded["runs"][name])
    assert moved == [], f"{len(moved)} of {len(digests)} runs moved: {moved}"
