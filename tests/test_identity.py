"""Byte-identity gate: the outputs of fixed inputs keep their recorded digests.

The cases and the regeneration script are in ``tests/identity_cases.py``.
A mismatch names the case sets whose output changed; a change made on
purpose regenerates ``tests/identity/`` and says so in ``CHANGES.md``.
"""

import json

from tests.identity_cases import DIGESTS, HERE, SAMPLES, digests, sample


def test_outputs_keep_their_digests():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []


def test_readable_samples():
    for name in SAMPLES:
        assert sample(name) == (HERE / name).read_text(), name
