"""Mutants of the package, each with a command that must catch it.

A mutant is one exact text edit to a file under ``src/modulicones``.  Run

    python tests/mutants.py

from anywhere.  It first runs every named command against an unedited copy
of ``src``, where each must exit 0, so a command that fails anyway (a
renamed test node, say) kills nothing.  Then, per mutant, it copies ``src``
to a fresh temporary directory, applies the edit there and runs the
mutant's command with that copy first on ``PYTHONPATH``; the command must
exit nonzero.  An old text that does not occur exactly once in its file
fails the run too, since a stale mutant checks nothing.  Commands are the
arguments after the Python interpreter and run from the repository root, so
a pytest node is named by its path under ``tests/``.

This is a CI step, not a tier-1 test: pytest does not collect this file,
and it uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verify_paper(group: int) -> tuple[str, ...]:
    return ("-m", "modulicones", "verify-paper", "--sections", str(group))


def pytest_node(node: str) -> tuple[str, ...]:
    return ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", f"tests/{node}")


@dataclass(frozen=True)
class Mutant:
    """Replace ``old`` by ``new`` in ``src/modulicones/<path>``; then
    ``command`` must exit nonzero."""

    name: str
    path: str
    old: str
    new: str
    command: tuple[str, ...]


MUTANTS = (
    # Keel's psi_1 (spaces.psi_sum)
    Mutant(
        "psi: the side holding 1 may contain j",
        "spaces.py",
        "    far = big.distinguished - s.distinguished\n",
        "    far = big.distinguished - s.distinguished - {s.m + 1}\n",
        verify_paper(8),
    ),
    Mutant(
        "psi: the degree of the push is not divided out",
        "spaces.py",
        "    degree = (s.n - s.m) * (s.n - s.m - 1)\n",
        "    degree = 1\n",
        pytest_node("test_spaces.py::test_psi_on_one_marked_spaces_has_b_k_coefficient_comb_n_minus_k_2"),
    ),
    Mutant(
        "psi: the labels with a two-point side are dropped",
        "spaces.py",
        "        if not far & (",
        "        if label.size > 2 and not far & (",
        verify_paper(8),
    ),
    # the genus-two cones (bridge.m21_cones)
    Mutant(
        "m21: the moving cone keeps its ten pushed generators",
        "bridge.py",
        '"push_nem": Cone.from_vrep(3, push(nem_hrep(s).rays).canonical_vrep()[0]),',
        '"push_nem": push(nem_hrep(s).rays),',
        pytest_node("test_member_pins.py::test_member_output_is_pinned[member --which m21-mov --coords=1,6,5]"),
    ),
    Mutant(
        "m21: eff is pushed from the nem rays",
        "bridge.py",
        '"eff": push(eff_cone(s).rays),',
        '"eff": push(nem_hrep(s).rays),',
        verify_paper(10),
    ),
    # the pointed nem rows (curves._nem_xn1_rows)
    Mutant(
        "nem: the b_l term of the two-marked row changes sign",
        "curves.py",
        "(l, -(j - 1) * (l - i) * (l - i + 1)),",
        "(l, (j - 1) * (l - i) * (l - i + 1)),",
        verify_paper(8),
    ),
    Mutant(
        "nem: nem_hrep builds the i = 3 rows too",
        "curves.py",
        "_nem_xn1_rows(s, 2)",
        "_nem_xn1_rows(s, 3)",
        verify_paper(8),
    ),
    # the recorded nef cones (fixtures.NEF_RAYS)
    Mutant(
        "nef: X(5,2) records the Eff facets, its old tuple",
        "fixtures.py",
        "SpaceId(5, 2): ((0, 1, 2), (0, 2, 1), (1, 0, 1), (1, 1, 0)),",
        "SpaceId(5, 2): ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)),",
        pytest_node("test_fcurve_oracle.py::test_recorded_nef_cone_is_the_f_cone[X(5,2)]"),
    ),
    # the mg slope rows (bridge._slope_rows)
    Mutant(
        "mg1: the first entry of the b row on mg at g = 5, k = 2 gains 1",
        "bridge.py",
        "    return a, b\n",
        '    if (target, g, k) == ("mg", 5, 2):\n        b = (b[0] + 1, *b[1:])\n    return a, b\n',
        verify_paper(9),
    ),
    # ramification and relations (spaces)
    Mutant(
        "spaces: _bare_pairs drops the side of n - 2 points",
        "spaces.py",
        "    return (size == 2 and marked == 0) + (s.n - size == 2 and marked == s.m)\n",
        "    return int(size == 2 and marked == 0)\n",
        pytest_node("test_fcurve_oracle.py::test_pushforward_to_the_four_point_quotient_is_off_by_the_klein_group"),
    ),
    Mutant(
        "spaces: _bare_pairs drops the two-point side",
        "spaces.py",
        "    return (size == 2 and marked == 0) + (s.n - size == 2 and marked == s.m)\n",
        "    return int(s.n - size == 2 and marked == s.m)\n",
        pytest_node("test_spaces.py::test_boundary_classes_against_the_ordered_basis"),
    ),
    Mutant(
        "spaces: the b* coefficient of the m = 2 relation",
        "spaces.py",
        "        yield i, frozenset({1}), -(i - 1) * (n - i - 1)\n",
        "        yield i, frozenset({1}), -(i - 1) * (n - i - 2)\n",
        verify_paper(7),
    ),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: Path, mutant: Mutant) -> None:
    path = src / "modulicones" / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"the old text of {mutant.name!r} occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run(src: Path, command: tuple[str, ...]) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *command], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        where = _run(src, ("-c", "import modulicones; print(modulicones.__file__)")).stdout.strip()
        if not Path(where).resolve().is_relative_to(src.resolve()):
            print(f"the copy of src is not the one imported: {where}")
            return 1
        for command in dict.fromkeys(mutant.command for mutant in MUTANTS):
            run = _run(src, command)
            if run.returncode:
                failed += 1
                print(f"FAIL on the unedited source (exit {run.returncode}): {' '.join(command)}\n{run.stdout}")
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            try:
                _apply(src, mutant)
            except ValueError as stale:
                failed += 1
                print(f"STALE     {stale}")
                continue
            code = _run(src, mutant.command).returncode
        failed += code == 0
        print(f"{'killed' if code else 'SURVIVED':9} {mutant.name} (exit {code}: {' '.join(mutant.command)})")
    print(f"{len(MUTANTS)} mutants, {failed} failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
