"""Recorded digests of the pure-Python routes' outputs, for tests only.

Where no numpy build decides the bits (the input screen, the parser,
the JSON writer, the d = 3 series kernels), a test pins them by digests
recorded over inputs drawn with `random.Random`, not by a copy of the
code a change retired.  An entry is a pair: the digest of the cases as
`repr` writes them, then that of their outcomes.  If only the second
differs, the library's bits moved; if the first does, the draws did (a
Python or `random` change).  When bits change on purpose, record the
entry again and say so in CHANGES.md.  A digest is the first 16 hex
digits of the sha256 over one line per case.  It needs no numpy.
"""

import hashlib


class Pin:
    """Running digests of the cases and of their outcomes."""

    def __init__(self):
        self._sha = (hashlib.sha256(), hashlib.sha256())

    def add(self, case, outcome):
        for sha, value in zip(self._sha, (case, outcome)):
            sha.update(repr(value).encode() + b"\n")

    def mismatch(self, kind, recorded):
        """None if the digests are the recorded pair, else what moved."""
        got = tuple(sha.hexdigest()[:16] for sha in self._sha)
        if got == recorded:
            return None
        moved = "the draws moved" if got[0] != recorded[0] else "the library's bits moved"
        return f"{kind}: {moved}: got {got}, recorded {recorded}"


def check(recorded, kind, cases, outcome):
    """Assert that `outcome` over `cases` gives the pair recorded for `kind`."""
    pin = Pin()
    for case in cases:
        pin.add(case, outcome(case))
    message = pin.mismatch(kind, recorded[kind])
    assert message is None, message
