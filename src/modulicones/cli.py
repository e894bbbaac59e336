"""Command-line surface for the package.

Seven verbs::

    modulicones space          -- counts, ordered basis, relations
    modulicones cone           -- serialize a cone (PORTA text)
    modulicones member         -- membership query with a certificate
    modulicones push           -- transport a class along a named map
    modulicones counterexample -- the pushed fibre class and its functional
    modulicones verify-paper   -- run the numbered end-to-end checks
    modulicones export         -- write PORTA / JSON / LaTeX files

Every invocation is deterministic: identical flags produce byte-identical
output.  Exit codes: 0 when everything requested passed, 1 when a check or
membership query failed, 2 for unusable arguments, unsupported
combinations (``verify-paper`` under ``python -O``, which strips its
asserts, among them), an output file that cannot be written or a request
too large for the memory the process may use.  ``export``
resolves relative output paths against the ``MODULICONES_OUTDIR``
environment variable when it is set.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import fixtures, verify
from .bridge import (
    hyperelliptic_pullback_cone,
    hyperelliptic_pushforward,
    m21_cones,
    m21_pushforward,
    mg1_inequality_family,
    pointed_pushforward,
)
from .cones import Cone
from .curves import counterexample_ftau, eff_cone, nem_hrep
from .porta import cone_json_dumps, latex_inequalities, latex_rays, porta_write
from .spaces import SpaceId, boundary_count, picard_number, relations_and_basis

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _fmt_vec(coords: Sequence) -> str:
    return "(" + ", ".join(map(str, coords)) + ")"


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _parse_coords(text: str) -> tuple[int | Fraction, ...]:
    # an exponent past the int-to-str digit limit is refused before Fraction
    # expands it: the value could not be printed, and expanding it is slow
    limit = sys.get_int_max_str_digits()
    exponents = re.findall(r"e([-+]?[\d_]+)\s*(?:,|$)", text, re.IGNORECASE)
    try:
        if limit and any(abs(int(e)) > limit for e in exponents):
            raise ValueError(f"a decimal exponent exceeds {limit}")
        # a plain ASCII integer is read as an int, everything else by Fraction
        parts = map(str.strip, text.split(","))
        return tuple(int(p) if _INT_TOKEN.fullmatch(p) else Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse coordinates {text!r}: {exc}") from None


# --------------------------------------------------------------------------
# object selection shared by `cone`, `member`, and `export`


@functools.lru_cache(maxsize=None)
def _nef_fixture_cone(s: SpaceId) -> Cone:
    rays = fixtures.NEF_RAYS.get(s)
    if rays is None:
        raise ValueError(f"no recorded nef rays for {s}")
    return Cone.from_vrep(picard_number(s), rays)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        # the cone verbs select by --which, push by --map
        selector = f"--which {args.which}" if "which" in args else f"{args.verb} --map {args.map}"
        raise ValueError(f"{selector} requires {flags}")


def _select_cone(args: argparse.Namespace) -> tuple[Cone, str]:
    """The cone named by ``--which`` plus a slug used for file names."""
    which = args.which
    if which in ("eff", "nem", "nef-fixture"):
        _require(args, "n", "m")
        s = SpaceId(args.n, args.m)
        if which == "eff":
            return eff_cone(s), f"eff-x{s.n}-{s.m}"
        if which == "nem":
            return nem_hrep(s), f"nem-x{s.n}-{s.m}"
        return _nef_fixture_cone(s), f"nef-fixture-x{s.n}-{s.m}"
    if which == "hyperelliptic":
        _require(args, "g")
        return hyperelliptic_pullback_cone(args.g), f"hyperelliptic-g{args.g}"
    if which == "mg1":
        _require(args, "g", "n")
        return mg1_inequality_family(args.g, args.n, args.target), f"mg1-g{args.g}-n{args.n}-{args.target}"
    if which == "m21-mov":
        return m21_cones()["push_nem"], "m21-mov"
    raise ValueError(f"unknown cone selector {which!r}")


def _porta_rep(rep: str) -> str:
    return "hrep" if rep == "hrep" else "vrep"


# --------------------------------------------------------------------------
# verbs


def _run_space(args: argparse.Namespace) -> int:
    if args.n is None or args.m is None:
        raise ValueError("space requires --n and --m")
    s = SpaceId(args.n, args.m)
    # 2^10 > 10^3, so a count of about 2^(m-1) has more digits than the
    # int-to-str limit once 3(m-1) > 10 * limit: refused before it is built
    limit = sys.get_int_max_str_digits()
    if limit and 3 * (s.m - 1) > 10 * limit:
        raise ValueError(f"the boundary count of {s} exceeds {limit} digits")
    # build every line before writing any: an unprintable count leaves stdout empty
    lines = [f"space {s}", f"boundary divisors: {boundary_count(s)}", f"picard number: {picard_number(s)}"]
    if s.m > 3:
        lines.append("ordered basis: none (the boundary classes are not independent "
                     "enough to provide one here)")
    else:
        spec = relations_and_basis(s)
        lines.append("ordered basis: " + ", ".join(spec.ordered_basis))
        lines.append(f"relations: {len(spec.relations)}")
        for row in spec.relations:
            terms = [f"{c} * {label}" for label, c in zip(spec.boundaries, row) if c != 0]
            lines.append("  0 = " + " + ".join(terms).replace("+ -", "- "))
    print("\n".join(lines))
    return EXIT_OK


def _run_cone(args: argparse.Namespace) -> int:
    cone, _ = _select_cone(args)
    sys.stdout.write(porta_write(cone, _porta_rep(args.rep)))
    return EXIT_OK


def _run_member(args: argparse.Namespace) -> int:
    cone, _ = _select_cone(args)
    point = _parse_coords(args.coords)
    cert = cone.contains(point)
    # build every line before writing any: an unprintable coefficient leaves stdout empty
    if cert:
        terms = [f"{c} * {_fmt_vec(cone.generators[i])}" for i, c in cert.coefficients]
        lines = ["member: yes", "combination: " + (" + ".join(terms) if terms else "0")]
    else:
        lines = ["member: no", f"separating functional: {_fmt_vec(cert.functional)}"]
    print("\n".join(lines))
    return EXIT_OK if cert else EXIT_CHECK_FAILED


def _run_push(args: argparse.Namespace) -> int:
    coords = _parse_coords(args.coords)
    if args.map == "m21":
        image = m21_pushforward(coords)
        print("divisor class on the genus-two pointed space "
              f"({', '.join(fixtures.M21_BASIS)}): {_fmt_vec(image)}")
        return EXIT_OK
    if args.map == "hyperelliptic":
        _require(args, "g")
        bridge = hyperelliptic_pushforward(args.g)
    else:  # pointed
        _require(args, "g", "n")
        bridge = pointed_pushforward(args.g, args.n, args.target)
    image = bridge(coords)
    print(f"curve class in the dual of ({', '.join(bridge.target_names)}): {_fmt_vec(image)}")
    return EXIT_OK


def _run_counterexample(args: argparse.Namespace) -> int:
    cls, cert, rays = counterexample_ftau(args.n)
    print(f"space {cls.space}")
    print(f"effective class outside the boundary cone: {_fmt_vec(cls.coords)}")
    print(f"separating functional: {_fmt_vec(cert.functional)}")
    print(f"certificate verified: {'yes' if cert.verify(cls.coords, rays) else 'NO'}")
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    if not __debug__:
        raise ValueError("verify-paper cannot run under python -O: its checks are assert statements")
    groups = None
    if args.sections is not None:
        try:
            groups = [int(part) for part in args.sections.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"cannot parse section list {args.sections!r}") from None
    results = verify.run_checks(groups)
    if not results:
        raise ValueError(f"no checks match sections {args.sections!r}")
    for line in verify.report_lines(results):
        print(line)
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _run_export(args: argparse.Namespace) -> int:
    cone, slug = _select_cone(args)
    rep = _porta_rep(args.rep)
    if args.format == "porta":
        text = porta_write(cone, rep)
        extension = ".ieq" if rep == "hrep" else ".poi"
    elif args.format == "json":
        text = cone_json_dumps(cone, rep)
        extension = ".json"
    else:  # latex
        text = latex_inequalities(cone) if rep == "hrep" else latex_rays(cone)
        extension = ".tex"
    name = args.out if args.out is not None else slug + extension
    if not os.path.isabs(name):
        name = os.path.join(os.environ.get("MODULICONES_OUTDIR", "."), name)
    try:
        with open(name, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(name)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _add_space_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="number of points")
    sub.add_argument("--m", type=int, default=None, help="number kept distinguished")


def _add_cone_flags(sub: argparse.ArgumentParser, whiches: tuple[str, ...]) -> None:
    sub.add_argument("--which", required=True, choices=whiches)
    _add_space_flags(sub)
    sub.add_argument("--g", type=int, default=None, help="genus of the target")
    sub.add_argument(
        "--target",
        choices=("mg", "mg1"),
        default="mg",
        help="unpointed or one-pointed moduli target (default mg)",
    )


_CONE_WHICHES = ("eff", "nem", "nef-fixture", "hyperelliptic", "mg1", "m21-mov")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="modulicones",
        description="Exact cones of divisors on symmetrized genus-zero moduli.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("space", help="counts, ordered basis, and relations")
    _add_space_flags(p)
    p.set_defaults(handler=_run_space)

    p = sub.add_parser("cone", help="serialize a cone as PORTA text")
    _add_cone_flags(p, _CONE_WHICHES)
    p.add_argument("--rep", choices=("hrep", "rays"), default="hrep")
    p.set_defaults(handler=_run_cone)

    p = sub.add_parser("member", help="membership query with a certificate")
    _add_cone_flags(p, _CONE_WHICHES)
    p.add_argument("--coords", required=True, help="comma-separated rationals")
    p.set_defaults(handler=_run_member)

    p = sub.add_parser("push", help="transport a class along a named map")
    p.add_argument("--map", required=True, choices=("hyperelliptic", "pointed", "m21"))
    p.add_argument("--g", type=int, default=None, help="genus of the target")
    p.add_argument("--n", type=int, default=None, help="pointed-cover parameter")
    p.add_argument("--target", choices=("mg", "mg1"), default="mg")
    p.add_argument("--coords", required=True, help="comma-separated rationals")
    p.set_defaults(handler=_run_push)

    p = sub.add_parser("counterexample", help="the pushed fibre class and certificate")
    p.add_argument("--n", type=int, default=6, help="number of points (default 6)")
    p.set_defaults(handler=_run_counterexample)

    p = sub.add_parser("verify-paper", help="run the numbered end-to-end checks")
    p.add_argument(
        "--sections",
        default=None,
        help="comma-separated thematic group numbers (default: all)",
    )
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("export", help="write a cone to a PORTA/JSON/LaTeX file")
    _add_cone_flags(p, _CONE_WHICHES)
    p.add_argument("--rep", choices=("hrep", "rays"), default="hrep")
    p.add_argument("--format", required=True, choices=("porta", "json", "latex"))
    p.add_argument("--out", default=None, help="output file name (default derived)")
    p.set_defaults(handler=_run_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # some argparse versions read `--flag=--` as an empty list, past `type` and `choices`
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument")
    try:
        return args.handler(args)
    except (ValueError, KeyError, OverflowError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; the request is too large", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
