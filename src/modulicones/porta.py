"""PORTA-style, JSON, and LaTeX serialization of cones.

The PORTA dialect is deliberately tiny: a ``DIM = d`` header, then either an
``INEQUALITIES_SECTION`` (``.ieq``, H-representation --- rows like
``+3x1 -x2 >= 0``; equations use ``==``) or a ``CONE_SECTION`` (``.poi``,
V-representation, integer ray rows), closed by ``END``.  Coefficients are
integers only; anything else, and any PORTA keyword outside this dialect, is
rejected with the offending line number.  ``CONE_SECTION`` lists
`Cone.generators`, the rays and then each lineality vector as ``l, -l``;
reading it back takes a trailing run of such pairs as the lineality.

JSON carries exact integers for cone data, so nothing ever moves through
floats.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Sequence

from .cones import Cone
from .linalg import IntVec


class PortaError(ValueError):
    """Malformed PORTA text; the message carries a 1-based line number."""


# --------------------------------------------------------------------------
# PORTA writing
# --------------------------------------------------------------------------


def _term(coef: int, var: int) -> str:
    sign = "-" if coef < 0 else "+"
    mag = abs(coef)
    return f"{sign}{'' if mag == 1 else mag}x{var}"


def _row_lhs(row: Sequence[int]) -> str:
    terms = [_term(c, i + 1) for i, c in enumerate(row) if c != 0]
    return " ".join(terms) if terms else "0x1"


def porta_write(cone: Cone, which: str) -> str:
    """Serialize ``which`` in {"hrep", "vrep"} of the cone as PORTA text."""
    lines = [f"DIM = {cone.ambient_dim}", ""]
    if which == "hrep":
        lines.append("INEQUALITIES_SECTION")
        lines += [f"{_row_lhs(a)} >= 0" for a in cone.inequalities]
        lines += [f"{_row_lhs(e)} == 0" for e in cone.equations]
    elif which == "vrep":
        lines.append("CONE_SECTION")
        lines += [" ".join(str(x) for x in r) for r in cone.generators]
    else:
        raise ValueError(f"unknown representation {which!r}; use 'hrep' or 'vrep'")
    lines.append("END")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# PORTA reading
# --------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-])(\d*)x(\d+)")


def _parse_lhs(text: str, dim: int, lineno: int) -> IntVec:
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise PortaError(f"line {lineno}: empty left-hand side")
    if compact[0] not in "+-":
        compact = "+" + compact
    if not re.fullmatch(r"(?:[+-]\d*x\d+)+", compact):
        raise PortaError(f"line {lineno}: cannot parse terms {text.strip()!r}")
    row = [0] * dim
    for sign, mag, var in _TERM_RE.findall(compact):
        idx = int(var)
        if not 1 <= idx <= dim:
            raise PortaError(f"line {lineno}: variable x{idx} is outside x1..x{dim} (DIM = {dim})")
        coef = int(mag) if mag else 1
        row[idx - 1] += coef if sign == "+" else -coef
    return tuple(row)


def porta_read(text: str) -> Cone:
    """Parse PORTA text (either dialect section) back into a `Cone`."""
    dim: Optional[int] = None
    section: Optional[str] = None
    ended = False
    ineqs: list[IntVec] = []
    eqs: list[IntVec] = []
    rays: list[IntVec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ended:
            raise PortaError(f"line {lineno}: unexpected content after END")
        if dim is None:
            m = re.fullmatch(r"DIM\s*=\s*(\d+)", line)
            if not m:
                raise PortaError(f"line {lineno}: missing DIM header")
            dim = int(m.group(1))
            continue
        if section is None:
            if line in ("INEQUALITIES_SECTION", "CONE_SECTION"):
                section = line
                continue
            raise PortaError(f"line {lineno}: expected a section keyword, got {line!r}")
        if line == "END":
            ended = True
            continue
        if re.fullmatch(r"[A-Z_]+", line):
            raise PortaError(f"line {lineno}: unsupported keyword {line!r}")
        if section == "INEQUALITIES_SECTION":
            m = re.fullmatch(r"(.*?)(<=|>=|==)\s*0", line)
            if not m:
                raise PortaError(f"line {lineno}: expected '<rows> >= 0', '<= 0' or '== 0'")
            row = _parse_lhs(m.group(1), dim, lineno)
            op = m.group(2)
            if op == "==":
                eqs.append(row)
            elif op == ">=":
                ineqs.append(row)
            else:
                ineqs.append(tuple(-x for x in row))
        else:
            try:
                row = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise PortaError(f"line {lineno}: expected integer entries, got {line!r}") from None
            if len(row) != dim:
                raise PortaError(f"line {lineno}: row has {len(row)} entries, DIM = {dim}")
            rays.append(row)
    if dim is None:
        raise PortaError("line 1: missing DIM header")
    if section is None:
        raise PortaError("missing section keyword")
    if not ended:
        raise PortaError("missing END")
    if section == "INEQUALITIES_SECTION":
        return Cone.from_hrep(dim, ineqs, eqs)
    # a trailing run of pairs l, -l is the lineality, as `porta_write` lists it
    k = len(rays)
    while k >= 2 and rays[k - 1] == tuple(-x for x in rays[k - 2]):
        k -= 2
    return Cone.from_vrep(dim, rays[:k], rays[k::2])


# --------------------------------------------------------------------------
# JSON
# --------------------------------------------------------------------------


def cone_to_json(cone: Cone, rep: Optional[str] = None) -> dict:
    """JSON-ready dict carrying the representation the cone was built from,
    plus ``rep`` in {"hrep", "vrep"} when it is given."""
    if rep not in (None, "hrep", "vrep"):
        raise ValueError(f"unknown representation {rep!r}; use 'hrep' or 'vrep'")
    obj: dict = {"ambient_dim": cone.ambient_dim}
    if cone.has_hrep or rep == "hrep":
        obj["hrep"] = {
            "inequalities": [list(a) for a in cone.inequalities],
            "equations": [list(e) for e in cone.equations],
        }
    if cone.has_vrep or rep == "vrep":
        obj["vrep"] = {
            "rays": [list(r) for r in cone.rays],
            "lineality": [list(l) for l in cone.lineality],
        }
    return obj


def cone_from_json(obj: dict) -> Cone:
    dim = obj["ambient_dim"]
    hrep = obj.get("hrep")
    vrep = obj.get("vrep")
    if hrep is not None and vrep is not None:
        a = Cone.from_hrep(dim, hrep["inequalities"], hrep.get("equations", ()))
        b = Cone.from_vrep(dim, vrep["rays"], vrep.get("lineality", ()))
        if a.canonical_vrep() != b.canonical_vrep():
            raise ValueError("the cone JSON's 'hrep' and 'vrep' entries describe different cones")
        return Cone(
            dim, _ineqs=a.inequalities, _eqs=a.equations, _rays=b.rays, _lineality=b.lineality
        )
    if hrep is not None:
        return Cone.from_hrep(dim, hrep["inequalities"], hrep.get("equations", ()))
    if vrep is not None:
        return Cone.from_vrep(dim, vrep["rays"], vrep.get("lineality", ()))
    raise ValueError("cone JSON needs an 'hrep' or 'vrep' entry")


def cone_json_dumps(cone: Cone, rep: Optional[str] = None) -> str:
    return json.dumps(cone_to_json(cone, rep), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# LaTeX
# --------------------------------------------------------------------------


def _latex_coef(c: int, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    return sign + ("" if mag == 1 else str(mag))


def latex_inequalities(cone: Cone) -> str:
    """Aligned inequality/equation rows, e.g. ``3a_{2} -a_{3} &\\geq 0\\\\``."""
    lines = []
    for rows, rel in ((cone.inequalities, r"\geq"), (cone.equations, "=")):
        for row in rows:
            terms: list[str] = []
            for i, c in enumerate(row):
                if c != 0:
                    terms.append(f"{_latex_coef(c, not terms)}a_{{{i + 1}}}")
            lhs = " ".join(terms) if terms else "0"
            lines.append(f"{lhs} &{rel} 0\\\\")
    body = "\n".join(lines)
    return f"\\begin{{align*}}\n{body}\n\\end{{align*}}\n"


def latex_rays(cone: Cone) -> str:
    """Ray list in display style: ``\\[ (5,3),\\ (1,3) \\]``."""
    rows = [f"({','.join(str(x) for x in r)})" for r in cone.rays]
    rows += [f"\\pm({','.join(str(x) for x in l)})" for l in cone.lineality]
    return "\\[ " + ",\\ ".join(rows) + " \\]\n"
