"""Command line front end.

Subcommands map one-to-one onto the library surface: validate, solve,
verify, oracle, linhull, export.  Exit codes are uniform across commands:

* 0: set is usable / policy found / policy verified
* 1: honest negative answer (infeasible, violations, bad set)
* 2: input or usage errors
* 3: numerical failure or an exhausted node budget

Instances travel as JSON with explicit dimensions and dense row-major
matrices; policies travel as JSON with exact float round-trip (the writer
uses the shortest representation that parses back to the same double).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .core import Instance, MixedExtension, Policy, validate
from .errors import AarlcpError, NodeLimitExceeded, NumericalFailure
from .export import build_milp, export_milp
from .linhull import compute_lin_hull
from .milp import SolveOptions, SolveStatus, bnb_solve
from .verify import oracle_enumerate, verify_policy


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in input")


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle, parse_constant=_reject_constant)


def _size(block: dict, key: str, default: int | None = None) -> int:
    """A size field: a JSON integer, not a float or a boolean."""
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def _shaped(value, shape) -> np.ndarray:
    """value as a float array.  JSON writes every empty array as [], so []
    reads at any declared shape with a zero dimension."""
    a = np.asarray(value, dtype=float)
    if a.shape == (0,) and 0 in shape:
        a = a.reshape(shape)
    return a


def _reader(block: dict, prefix: str = "", suffix: str = ""):
    """A reader of block[key] at a declared shape, raising ValueError on
    any other shape with the key between prefix and suffix."""

    def read(key: str, shape: tuple) -> np.ndarray:
        a = _shaped(block[key], shape)
        if a.shape != shape:
            raise ValueError(f"{prefix}{key} has shape {a.shape}, expected {shape}{suffix}")
        return a

    return read


def read_instance(path: str) -> Instance:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("instance file must hold a JSON object")
    for key in ("n", "k", "g", "M", "T", "Theta", "q", "zeta"):
        if key not in data:
            raise ValueError(f"instance file lacks key {key!r}")
    n, k, g = (_size(data, key) for key in ("n", "k", "g"))
    h = _size(data, "h", 0)
    arr = _reader(data, suffix=" from the declared sizes")
    mixed = None
    if data.get("mixed") is not None:
        mblock = data["mixed"]
        if not isinstance(mblock, dict):
            raise ValueError("mixed block must be a JSON object")
        for key in ("m", "V", "W", "N", "p", "P"):
            if key not in mblock:
                raise ValueError(f"mixed block lacks key {key!r}")
        m = _size(mblock, "m")
        y_adjustable = mblock.get("y_adjustable", True)
        if not isinstance(y_adjustable, bool):
            raise ValueError(f"y_adjustable must be true or false, not {y_adjustable!r}")
        marr = _reader(mblock, prefix="mixed ")
        mixed = MixedExtension(
            V=marr("V", (m, n)),
            W=marr("W", (m, m)),
            N=marr("N", (n, m)),
            p=marr("p", (m,)),
            P=marr("P", (m, k)),
            y_adjustable=y_adjustable,
        )

    return Instance(
        M=arr("M", (n, n)),
        q=arr("q", (n,)),
        T=arr("T", (n, k)),
        Theta=arr("Theta", (g, k)),
        zeta=arr("zeta", (g,)),
        h=h,
        mixed=mixed,
    )


def _policy_payload(report) -> dict:
    """The policy file of a solve or oracle report."""
    policy = report.policy
    payload: dict = {"status": report.status.value}
    if policy is not None:
        payload["x"] = policy.x.tolist()
        payload["r"] = policy.r.tolist()
        payload["D"] = policy.D.tolist()
        if policy.E is not None:
            payload["E"] = policy.E.tolist()
            payload["s"] = policy.s.tolist()
    payload["diagnostics"] = {
        "nodes_explored": int(report.nodes_explored),
        "lp_calls": int(report.lp_calls),
        "lp_pivots": int(report.lp_pivots),
        "tolerances": {kk: float(vv) for kk, vv in report.tolerances.items()},
    }
    return payload


def write_policy_file(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")


def read_policy(path: str) -> Policy:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("policy file must hold a JSON object")
    status = data.get("status", "feasible")
    if status != "feasible":
        raise ValueError(f"policy file records status {status!r}, nothing to verify")
    for key in ("D", "r", "x"):
        if key not in data:
            raise ValueError(f"policy file lacks key {key!r}")
    D = np.asarray(data["D"], dtype=float)
    k = D.shape[1] if D.ndim == 2 else 0  # Policy refuses any other D
    E = _shaped(data["E"], (0, k)) if "E" in data else None
    s = np.asarray(data["s"], dtype=float) if "s" in data else None
    return Policy(
        D=D,
        r=np.asarray(data["r"], dtype=float),
        x=np.asarray(data["x"], dtype=float),
        E=E,
        s=s,
    )


def _tolerance(text: str) -> float:
    """A --tol value: a finite positive number, else a usage error."""
    tol = float(text)
    if not 0.0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, not {text!r}")
    return tol


def _support_str(x) -> str:
    members = [str(i + 1) for i, v in enumerate(x) if int(v) == 1]
    return " ".join(members) if members else "(empty)"


def _vec_str(v) -> str:
    return " ".join(f"{float(t):g}" for t in v)


def cmd_validate(args) -> int:
    inst = read_instance(args.instance)
    report = validate(inst, args.tol)
    print(f"compact: {'yes' if report.compact else 'no'}")
    print(f"zero in relative interior: {'yes' if report.zero_in_relint else 'no'}")
    eq = sorted(report.implicit_equality_rows)
    print(
        "implicit equality rows: "
        + (" ".join(str(j + 1) for j in eq) if eq else "none")
    )
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"status: {'ok' if report.ok else 'bad set'}")
    return 0 if report.ok else 1


def cmd_linhull(args) -> int:
    inst = read_instance(args.instance)
    basis = compute_lin_hull(inst, args.tol)
    eq = sorted(basis.inequality_rows.symmetric_difference(range(inst.g)))
    print(
        "implicit equality rows: "
        + (" ".join(str(j + 1) for j in eq) if eq else "none")
    )
    print(f"hull dimension: {basis.dimension}")
    for t, v in enumerate(basis.vectors):
        print(f"v{t + 1}: {_vec_str(v)}")
    return 0


def cmd_solve(args) -> int:
    opts = SolveOptions(
        tol=args.tol, node_limit=args.node_limit, branching=args.branching, psd=args.psd
    )
    inst = read_instance(args.instance)
    report = bnb_solve(inst, compute_lin_hull(inst, args.tol), opts)
    feasible = report.status is SolveStatus.FEASIBLE
    policy = report.policy
    print(f"path: {'forced support' if report.forced else 'tree search'}")
    if report.nominal is not None:
        print(f"nominal solution: {_vec_str(report.nominal)}")
        print(
            "positive-capable rows: "
            + (" ".join(str(i + 1) for i in sorted(report.support_p)) or "(none)")
        )
    print(f"status: {report.status.value}")
    print(f"nodes explored: {report.nodes_explored}")
    print(f"lp calls: {report.lp_calls}")
    print(f"lp pivots: {report.lp_pivots}")
    if feasible:
        print(f"support: {_support_str(policy.x)}")
        print(f"r: {_vec_str(policy.r)}")
    if args.out:
        write_policy_file(args.out, _policy_payload(report))
        print(f"policy written to {args.out}")
    return 0 if feasible else 1


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    pol = read_policy(args.policy)
    basis = compute_lin_hull(inst, args.tol)
    report = verify_policy(inst, basis, pol)
    print(f"verdict: {report.verdict}")
    print(
        "support: "
        + (" ".join(str(i + 1) for i in sorted(report.support)) or "(empty)")
    )
    print(f"nominal residual: {report.nominal_residual:g}")
    print(f"direction residual: {report.direction_residual:g}")
    if report.equality_residual is not None:
        print(f"equation residual: {report.equality_residual:g}")
        print(f"equation direction residual: {report.equality_direction_residual:g}")
    print(f"min z over set: {_vec_str(report.min_z)}")
    print(f"min w over set: {_vec_str(report.min_w)}")
    for v in report.violations:
        print(f"violation: {v}")
    return 0 if report.verified else 1


def cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    basis = compute_lin_hull(inst, args.tol)
    report = oracle_enumerate(inst, basis, tol=args.tol, limit=args.limit)
    feasible = report.status is SolveStatus.FEASIBLE
    print(f"status: {'feasible' if feasible else 'infeasible'}")
    tally = report.tally
    print(f"supports tested: {tally['tested']}")
    print(f"equality-stage prunes: {tally['equality_infeasible']}")
    print(f"nonnegativity-stage prunes: {tally['nonnegativity_infeasible']}")
    if feasible:
        print(f"support: {_support_str(report.policy.x)}")
        print(f"verification: {report.verification.verdict}")
    if args.out:
        write_policy_file(args.out, _policy_payload(report))
        print(f"policy written to {args.out}")
    return 0 if feasible else 1


def cmd_export(args) -> int:
    inst = read_instance(args.instance)
    basis = compute_lin_hull(inst, args.tol)
    model = build_milp(inst, basis, args.big_m)
    text = export_milp(model, args.format)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(
            f"wrote {args.format} model to {args.out}"
            f" (rows {len(model.rows)}, binaries {len(model.binaries)},"
            f" b {model.big_m:g})"
        )
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="aarlcp",
        description=(
            "Affine decision rules for linear complementarity under"
            " polyhedral uncertainty"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument(
            "--tol",
            type=_tolerance,
            default=1e-8,
            help="feasibility tolerance (default 1e-8)",
        )

    p = sub.add_parser("validate", help="check the uncertainty set assumptions")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("linhull", help="print the hull basis of the set")
    common(p)
    p.set_defaults(func=cmd_linhull)

    p = sub.add_parser("solve", help="search for an affine policy")
    common(p)
    p.add_argument(
        "--psd",
        choices=("auto", "force", "off"),
        default="auto",
        help="start the search at the support a PSD matrix forces (default auto)",
    )
    p.add_argument(
        "--node-limit",
        type=int,
        default=None,
        help=(
            "node budget (default: 2^min(n+1, 21), enough to exhaust the tree"
            " for n <= 20)"
        ),
    )
    p.add_argument(
        "--branching",
        choices=("heuristic", "index"),
        default="heuristic",
        help="branch variable selection",
    )
    p.add_argument("--out", help="write the policy as JSON to this path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="certify a policy file against an instance")
    common(p)
    p.add_argument("policy", help="policy JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive support enumeration (small n)")
    common(p)
    p.add_argument(
        "--limit",
        type=int,
        default=16,
        help="refuse instances with more rows than this (default 16)",
    )
    p.add_argument("--out", help="write the policy as JSON to this path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="write the big-M model as LP or MPS text")
    common(p)
    p.add_argument("--format", choices=("lp", "mps"), default="lp")
    p.add_argument(
        "--big-m",
        type=float,
        default=None,
        dest="big_m",
        help="big-M constant (default: scaled from the instance data)",
    )
    p.add_argument("--out", help="write the model text to this path")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (NumericalFailure, NodeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AarlcpError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
