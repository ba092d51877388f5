"""Big-M export of the reformulation, and a reader of exactly what it writes.

:func:`build_milp` renders the row families of :class:`milp.Formulation` as
one mixed-binary model for external integer programming tools, writing
each family's rows from its coefficient blocks and naming every row and
column: each indicator row is relaxed by a big-M multiple of its binary
x_i, and the support_link, z_dual_match and D columns the node LPs
presolve away are kept.  The search never uses this form.
:func:`export_milp` writes the model as LP or fixed-field MPS text.

:func:`parse_lp_text` reads back the LP text :func:`export_milp` writes
and raises ValueError on anything else.  Section headers start at column
0 and every other line is indented; the objective (always 0) is read past;
a row is "name: terms relation rhs", its terms "[-] [c] var" followed by
"+|- [c] var"; a bound line is "name free".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .core import Instance
from .linhull import LinHullBasis
from .milp import ALL_TAGS, Family, Formulation


@dataclass
class MilpRow:
    name: str
    coeffs: dict[str, float]
    relation: str
    rhs: float
    tag: str


@dataclass(eq=False)
class MilpModel:
    """Explicit big-M mixed-binary model, ready for text export.

    Variable names follow x{i}, D{i}_{c}, r{i}, A{j}_{i}, C{j}_{i}, and for a
    free block s{a}, E{a}_{c}, with 1-based indices.  Every row carries
    exactly one tag.
    """

    big_m: float
    rows: list[MilpRow]
    binaries: list[str]
    continuous: list[str]
    free: list[str]

    def rows_by_tag(self, tag: str) -> list[MilpRow]:
        return [row for row in self.rows if row.tag == tag]


def default_big_m(inst: Instance) -> float:
    """10^4 times the largest of the data magnitudes (at least one)."""

    def inf_norm_mat(a):
        return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0

    def inf_norm_vec(a):
        return float(np.abs(a).max()) if a.size else 0.0

    mats, vecs = [inst.M, inst.T], [inst.q, inst.zeta]
    if inst.mixed is not None:
        mx = inst.mixed
        mats += [mx.V, mx.W, mx.N, mx.P]
        vecs.append(mx.p)
    norms = [inf_norm_mat(a) for a in mats] + [inf_norm_vec(a) for a in vecs]
    return 1e4 * max([1.0] + norms)


# Name patterns of the rows of each family, in the order of ALL_TAGS, and
# of the columns of each group: the 1-based indices of a row or column go
# in positionally, and the half of a split indicator row ("u" or "l") as h.
_ROW_NAMES = dict(zip(ALL_TAGS, (
    "sl{0}", "nc{h}{0}", "dc{h}{0}_{1}", "zv{0}", "zm{0}_{1}", "wv{0}", "wm{0}_{1}",
    "hn{0}_{1}", "mn{0}", "md{1}_{0}", "mp{0}_{1}",
)))
_COLUMN_NAMES = {
    "D": "D{0}_{1}", "r": "r{0}", "A": "A{1}_{0}", "C": "C{1}_{0}", "s": "s{0}", "E": "E{0}_{1}",
}


def _grid(pattern: str, shape: tuple[int, ...]) -> list[str]:
    """pattern formatted with the 1-based indices of np.ndindex(*shape)."""
    return [pattern.format(*(t + 1 for t in idx)) for idx in np.ndindex(*shape)]


def _bigm_rows(names: dict, fam: Family, big_m: float) -> list[MilpRow]:
    """Export rows of one family; indicator rows get the constant."""
    pattern, out = _ROW_NAMES[fam.tag], []
    for t, idx in enumerate(np.ndindex(*fam.shape)):
        idx = [a + 1 for a in idx]
        terms = {
            names[group][c]: float(block[t, c])
            for group, block in fam.blocks.items()
            for c in np.flatnonzero(block[t])
        }
        rhs = float(fam.rhs[t])
        if fam.i is None:
            out.append(MilpRow(pattern.format(*idx), terms, fam.rel, rhs, fam.tag))
            continue
        # the equation holds at x_i = value; elsewhere b |x_i - value|, which
        # is c0 + c1 x_i, relaxes each half
        x, c0, c1 = f"x{fam.i[t] + 1}", big_m * fam.value, big_m * (1 - 2 * fam.value)
        upper, lower = pattern.format(*idx, h="u"), pattern.format(*idx, h="l")
        out.append(MilpRow(upper, {**terms, x: -c1}, lp.LE, rhs + c0, fam.tag))
        if fam.lower == "bigm":
            out.append(MilpRow(lower, {**terms, x: c1}, lp.GE, rhs - c0, fam.tag))
        elif fam.lower == "plain":
            out.append(MilpRow(lower, terms, lp.GE, rhs, fam.tag))
    return out


def build_milp(
    inst: Instance, basis: LinHullBasis, big_m: float | None = None
) -> MilpModel:
    """Assemble the big-M feasibility model for export.

    The search itself never uses this form; a finite big_m below the size of
    a genuine policy can make the exported model infeasible.
    """
    if big_m is None:
        big_m = default_big_m(inst)
    big_m = float(big_m)
    if not np.isfinite(big_m) or big_m <= 0:
        raise ValueError("big_m must be positive and finite")

    form = Formulation(inst, basis.matrix.T)
    names = {
        group: _grid(pattern, getattr(form, group).shape)
        for group, pattern in _COLUMN_NAMES.items()
    }
    rows = []
    for tag in ALL_TAGS:
        rows += _bigm_rows(names, getattr(form, tag)(), big_m)
    return MilpModel(
        big_m=big_m,
        rows=rows,
        binaries=_grid("x{0}", (inst.n,)),
        continuous=[name for group in names.values() for name in group],
        free=names["D"] + names["s"] + names["E"],
    )


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _lp_expr(coeffs: dict[str, float]) -> str:
    """"[-] [c] var" then "+|- [c] var" per term; a unit c is left out, and
    an empty row is written "0 r1"."""
    out = ""
    for var, c in coeffs.items():
        mag = "" if abs(c) == 1.0 else f"{_fmt_num(abs(c))} "
        if not out:
            out = ("- " if c == -1.0 else "-" if c < 0 else "") + mag + var
        else:
            out += f" {'-' if c < 0 else '+'} {mag}{var}"
    return out or "0 r1"


_CAVEAT = (
    "rows bounding tight values by multiples of (1 - x_i) can cut genuine"
    " policies when the constant is too small; raise it if a known feasible"
    " instance exports as infeasible"
)


def export_milp(model: MilpModel, fmt: str = "lp") -> str:
    """Render the big-M model as LP ("lp") or fixed-field MPS ("mps") text."""
    if fmt == "lp":
        return _export_lp(model)
    if fmt == "mps":
        return _export_mps(model)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_lp(model: MilpModel) -> str:
    out = [
        f"\\ big-M feasibility model, constant b = {_fmt_num(model.big_m)}",
        f"\\ {_CAVEAT}",
        "Minimize",
        " obj: 0",
        "Subject To",
    ]
    for row in model.rows:
        expr = _lp_expr(row.coeffs)
        out.append(f" {row.name}: {expr} {row.relation} {_fmt_num(row.rhs)}")
    out.append("Bounds")
    for name in model.free:
        out.append(f" {name} free")
    out.append("Binaries")
    out.append(" " + " ".join(model.binaries))
    out.append("End")
    return "\n".join(out) + "\n"


def _export_mps(model: MilpModel) -> str:
    rel_tag = {lp.LE: "L", lp.GE: "G", lp.EQ: "E"}
    out = [
        f"* big-M feasibility model, constant b = {_fmt_num(model.big_m)}",
        f"* {_CAVEAT}",
        "NAME          AARLCP",
        "ROWS",
        " N  COST",
    ]
    for row in model.rows:
        out.append(f" {rel_tag[row.relation]}  {row.name}")
    out.append("COLUMNS")
    by_var: dict[str, list[tuple[str, float]]] = {
        name: [] for name in model.binaries + model.continuous
    }
    for row in model.rows:
        for var, c in row.coeffs.items():
            by_var[var].append((row.name, c))
    for var in model.binaries + model.continuous:
        for rname, c in by_var[var]:
            out.append(f"    {var:<10}{rname:<10}{_fmt_num(c)}")
    out.append("RHS")
    for row in model.rows:
        if row.rhs != 0.0:
            out.append(f"    {'RHS':<10}{row.name:<10}{_fmt_num(row.rhs)}")
    out.append("BOUNDS")
    for var in model.binaries:
        out.append(f" BV {'BND':<10}{var}")
    for var in model.free:
        out.append(f" FR {'BND':<10}{var}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


@dataclass(eq=False)
class ParsedLp:
    """Rows, binaries and free variables, whose bounds are (-inf, inf), of
    LP text read back by :func:`parse_lp_text`."""

    rows: list[tuple[str, dict[str, float], str, float]]
    binaries: list[str]
    bounds: dict[str, tuple[float, float]]

    def variables(self) -> list[str]:
        """Every variable name, in order of first appearance."""
        names = [v for _, terms, _, _ in self.rows for v in terms]
        return list(dict.fromkeys(names + self.binaries + list(self.bounds)))


_SECTIONS = ("Minimize", "Subject To", "Bounds", "Binaries")


def _terms(tokens: list[str], line: str) -> dict[str, float]:
    """{var: coefficient} of "[-] [c] var" followed by "+|- [c] var"; a
    variable name starts with a letter, a coefficient does not."""
    terms: dict[str, float] = {}
    it = iter(tokens)
    for tok in it:
        sign = -1.0 if tok == "-" else 1.0
        if tok in ("+", "-"):
            tok = next(it, "")
        elif terms:
            raise ValueError(f"terms not joined by + or -: {line!r}")
        coef = 1.0
        if not tok[:1].isalpha():
            coef = float(tok)
            tok = next(it, "")
        if not tok[:1].isalpha():
            raise ValueError(f"term without a variable: {line!r}")
        terms[tok] = sign * coef
    return terms


def parse_lp_text(text: str) -> ParsedLp:
    """Read LP text as :func:`export_milp` writes it (see the module
    docstring); anything else raises ValueError."""
    parsed = ParsedLp([], [], {})
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if not raw[0].isspace():
            if line == "End":
                break
            if line not in _SECTIONS:
                raise ValueError(f"unknown section header: {line!r}")
            section = line
        elif section == "Subject To":
            name, colon, body = line.partition(":")
            tokens = body.split()
            if not colon or len(tokens) < 2 or tokens[-2] not in (lp.LE, lp.GE, lp.EQ):
                raise ValueError(f"row is not 'name: terms relation rhs': {line!r}")
            terms = _terms(tokens[:-2], line)
            parsed.rows.append((name.strip(), terms, tokens[-2], float(tokens[-1])))
        elif section == "Bounds":
            name, *rest = line.split()
            if rest != ["free"]:
                raise ValueError(f"unsupported bound line: {line!r}")
            parsed.bounds[name] = (-np.inf, np.inf)
        elif section == "Binaries":
            parsed.binaries.extend(line.split())
        elif section != "Minimize":
            raise ValueError(f"line outside a section: {line!r}")
    return parsed
