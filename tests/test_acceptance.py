"""End-to-end acceptance checks: one test per registered headline computation.

The test is parametrized over :data:`modulicones.verify.CHECKS`, the same
registry the command-line ``verify-paper`` report runs, so a new check is
picked up here without further edits and the two can never drift apart.
All comparisons are exact rational arithmetic; there are no tolerances
anywhere.

Check 02 asserts the pushed six-point class and its seven- and eight-point
transports in full, as confirmed by the F-curve oracle in
``tests/test_fcurve_oracle.py``; on a mismatch its message prints the
computed vectors next to the recorded ones.  The values recorded before
that oracle, and why they were replaced, are quoted in
:func:`modulicones.verify.check_counterexample` and the package README.
"""

import pytest

from modulicones import verify


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: f"check_{c.number:02d}")
def test_check(check):
    check.run()


def test_check_numbers_are_one_to_the_count_without_repeats():
    numbers = sorted(c.number for c in verify.CHECKS)
    assert numbers == list(range(1, len(verify.CHECKS) + 1))
