"""End-to-end acceptance checks: one test per frozen headline computation.

Each test delegates to the matching numbered check in
:mod:`modulicones.verify`, so this file and the command-line ``verify-paper``
report can never drift apart.  All comparisons are exact rational
arithmetic; there are no tolerances anywhere.

The second check asserts the pushed six-point class and its seven- and
eight-point transports in full, as confirmed by the F-curve oracle in
``tests/test_fcurve_oracle.py``; on a mismatch its message
prints the computed vectors next to the recorded ones.  The values recorded
before that oracle, and why they were replaced, are quoted in
:func:`modulicones.verify.check_counterexample` and the package README.
"""

from modulicones import verify


def test_criterion_01_boundary_and_picard_counts():
    """Counts for 5 <= n <= 12 and every mark count match the closed forms."""
    verify.check_table_counts()


def test_criterion_02_pushed_fibre_class_and_certificates():
    """Separating functionals verify; the recorded coordinates are asserted."""
    verify.check_counterexample()


def test_criterion_03_unpointed_ray_sets():
    """Nem rays for n = 6..9 without marks equal the recorded primitive sets."""
    verify.check_unpointed_ray_sets()


def test_criterion_04_branching_rule_counts():
    """The branching construction has 2^(n//2 - 2) rays and matches DD, n <= 14."""
    verify.check_branching_rule()


def test_criterion_05_small_one_marked_cones():
    """Recorded descriptions of the one-marked nem cones at n = 5, 6, 7."""
    verify.check_pointed_small_cones()


def test_criterion_06_redundancy_identities():
    """Closed-form rewritings collapse the full system for 5 <= n <= 12."""
    verify.check_redundancy_identities()


def test_criterion_07_surface_effective_cone():
    """X(5,2): the relation, the four generators, and the dual description."""
    verify.check_surface_effective_cone()


def test_criterion_08_two_marked_derivation():
    """The stated row combination yields each starred unit, 5 <= n <= 10."""
    verify.check_two_marked_derivation()


def test_criterion_09_transport_consistency():
    """Two-route curve images for g = 2..5; family multipliers for n <= 20."""
    verify.check_transport_consistency()


def test_criterion_10_genus_two_pointed_space():
    """Pushed hulls, the moving-cone witnesses, and the contraction face."""
    verify.check_genus_two_pointed()


def test_criterion_11_symmetrized_cotangent_class():
    """The fifteen-term class pushes to the primitive ray (10, 6, 3, 1)."""
    verify.check_symmetrized_cotangent_class()


def test_criterion_12_containment_chain():
    """Every recorded nef ray sits in nem, every nem ray in effective."""
    verify.check_containment_chain()


def test_criterion_13_serialization_round_trips():
    """PORTA text and JSON exports survive write/read/write byte-for-byte."""
    verify.check_serialization_round_trips()


def test_criterion_14_pointed_nem_cone_fibres_over_the_unpointed_one():
    """For n = 6..8 the face a_2 = 0 is the pulled-back unpointed cone."""
    verify.check_pointed_fibration()
