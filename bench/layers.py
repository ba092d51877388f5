"""Per-layer metrics derived from the spans of one traced pass.

Layers are the package's modules: core, linhull, lp, milp, verify, psd,
mixed and cli.  LP calls are split by the span that made them:

* node LPs come straight from a search or forced-support solve
  (``milp.bnb_solve``, ``mixed.mixed_solve``, ``psd.psd_solve``);
* probe LPs come from ``psd.compute_support_p``;
* set LPs (over the uncertainty set) come from core, linhull and verify.

``lp.node.cells.mean`` is computed, not measured: the dense tableau size
that ``lp._solve`` would allocate for the model, from its rows, bounds and
free-variable splits.
"""

from __future__ import annotations

import math

import numpy as np

NODE_PARENTS = frozenset(
    {"milp.bnb_solve", "mixed.mixed_solve", "psd.psd_solve", "verify.oracle_enumerate"}
)
PROBE_PARENTS = frozenset({"psd.compute_support_p"})
SET_LAYERS = frozenset({"core", "linhull", "verify"})


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' rule); inf allowed."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def lp_kind(span) -> str | None:
    """node / probe / set by the calling span; None for an orphan."""
    parent = span.parent
    if parent is None:
        return None
    if parent.name in NODE_PARENTS:
        return "node"
    if parent.name in PROBE_PARENTS:
        return "probe"
    if parent.layer in SET_LAYERS:
        return "set"
    return "other"


def tableau_cells(model) -> int:
    """Cells of the phase-one tableau built for this model.

    Mirrors the standard-form reduction: a finite lower or upper bound gives
    one column, a free variable two; a variable with both bounds adds a row.
    Rows whose shifted right-hand side is negative flip their sense, and
    every non-LE row gets an artificial column.
    """
    lower = np.asarray(model.lower)
    upper = np.asarray(model.upper)
    fl = np.isfinite(lower)
    fu = np.isfinite(upper)
    ncols = int(fl.sum() + (~fl & fu).sum() + 2 * (~fl & ~fu).sum())
    nbound = int((fl & fu).sum())
    offsets = np.where(fl, lower, np.where(fu, upper, 0.0))
    shifted = bool(np.any(offsets))
    nslack = nbound
    nart = 0
    for coeffs, rel, rhs in model.rows:
        b = rhs - float(coeffs @ offsets) if shifted else rhs
        if rel != "=":
            nslack += 1
        if rel == "=" or (rel == ">=") == (b >= 0):
            nart += 1
    m = len(model.rows) + nbound
    return (m + 1) * (ncols + nslack + nart + 1)


def _total(spans) -> float:
    return float(sum(s.duration for s in spans))


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for every per-layer metric of one pass."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    lps = [s for s in spans if s.layer == "lp"]
    kinds = {"node": [], "probe": [], "set": []}
    for s in lps:
        kinds.get(lp_kind(s), []).append(s)
    node, probe, setl = kinds["node"], kinds["probe"], kinds["set"]

    def ms(xs, p):
        return percentile([s.duration * 1e3 for s in xs], p)

    def under(xs, parent_name):
        return [s for s in xs if s.parent.name == parent_name]

    bnb = named("milp.bnb_solve")
    milp_nodes = under(node, "milp.bnb_solve")
    pruned = sum(
        1 for s in milp_nodes if s.result is not None and s.result.status.value == "infeasible"
    )
    bnb_time = _total(bnb)
    cells = [tableau_cells(s.args[0]) for s in node]

    def lp_calls_from(parent_prefix):
        return sum(1 for s in setl if s.parent.name.startswith(parent_prefix))

    def outermost(layer):
        return [
            s
            for s in spans
            if s.layer == layer and (s.parent is None or s.parent.layer != layer)
        ]

    out = {
        "lp.node.calls": (len(node), "count"),
        "lp.node.ms.p50": (ms(node, 0.5), "ms"),
        "lp.node.ms.p90": (ms(node, 0.9), "ms"),
        "lp.node.cells.mean": (float(np.mean(cells)) if cells else 0.0, "cells"),
        "lp.set.calls": (len(setl), "count"),
        "lp.set.ms.p50": (ms(setl, 0.5), "ms"),
        "lp.probe.calls": (len(probe), "count"),
        "lp.probe.ms.p50": (ms(probe, 0.5), "ms"),
        "lp.raised_calls": (sum(1 for s in lps if s.result is None), "count"),
        "milp.nodes": (len(milp_nodes), "count"),
        "milp.prune_frac": (pruned / len(milp_nodes) if milp_nodes else 0.0, "ratio"),
        "milp.lp_share": (_total(milp_nodes) / bnb_time if bnb_time else 0.0, "ratio"),
        "milp.assemble_s": (_total(named("milp.builder_init", "milp.model")), "s"),
        "milp.self_s": (float(sum(s.self_time for s in bnb)), "s"),
        "core.validate_s": (_total(named("core.validate")), "s"),
        "core.validate.lp_calls": (lp_calls_from("core.validate"), "count"),
        "linhull.s": (_total(named("linhull.compute_lin_hull")), "s"),
        "linhull.lp_calls": (lp_calls_from("linhull."), "count"),
        "verify.s": (_total(outermost("verify")), "s"),
        "verify.lp_calls": (lp_calls_from("verify."), "count"),
        "psd.check_s": (_total(named("psd.check_psd")), "s"),
        "psd.lemke_s": (_total(named("psd.lemke_nominal")), "s"),
        "psd.support_s": (_total(named("psd.compute_support_p")), "s"),
        "mixed.s": (_total(outermost("mixed")), "s"),
        "mixed.nodes": (len(under(node, "mixed.mixed_solve")), "count"),
        "cli.read_s": (_total(named("cli.read_instance")), "s"),
        "cli.write_s": (_total(named("cli.write_policy_file")), "s"),
        "cli.self_s": (float(sum(s.self_time for s in named("cli.main"))), "s"),
    }
    return out


def self_time_by_layer(spans) -> dict[str, float]:
    """Disjoint time per layer: each span's duration minus its children's."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.self_time
    return out


def orphan_lp_spans(spans) -> int:
    return sum(1 for s in spans if s.layer == "lp" and lp_kind(s) is None)
