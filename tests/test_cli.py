"""Command line behavior: exit codes, file round trips, error mapping."""

import dataclasses
import json
import re

import numpy as np
import pytest

import aarlcp.cli
from aarlcp import (
    SolveOptions,
    SolveStatus,
    bnb_solve,
    build_milp,
    compute_lin_hull,
    oracle_enumerate,
)
from aarlcp.cli import build_parser, main, read_instance, read_policy
from aarlcp.core import EPS_FEAS, EPS_ZERO, MixedExtension
from aarlcp.milp import TAG_NOMINAL_COMP
from support import count_lp_calls

GOLDEN = {
    "n": 2,
    "k": 2,
    "g": 4,
    "M": [[1, -1], [1, -1]],
    "q": [-1, -1],
    "T": [[1, 0], [0, 1]],
    "Theta": [[1, -1], [-1, 1], [1, 0], [-1, 0]],
    "zeta": [0, 0, -2, -2],
}

PSD_DESK = {
    "n": 2,
    "k": 2,
    "g": 4,
    "M": [[2, 0], [0, 0]],
    "q": [-2, 1],
    "T": [[1, 0], [0, 1]],
    "Theta": [[1, 0], [-1, 0], [0, 1], [0, -1]],
    "zeta": [-0.5, -0.5, -0.5, -0.5],
}

MIXED_1D = {
    "n": 1,
    "k": 1,
    "g": 2,
    "M": [[2]],
    "q": [-4],
    "T": [[1]],
    "Theta": [[1], [-1]],
    "zeta": [-1, -1],
    "mixed": {
        "m": 1,
        "V": [[0]],
        "W": [[1]],
        "N": [[1]],
        "p": [-3],
        "P": [[0]],
        "y_adjustable": True,
    },
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GOLDEN)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "compact: yes" in out
    assert "implicit equality rows: 1 2" in out
    assert "status: ok" in out


def test_validate_bad_set(tmp_path):
    bad = dict(GOLDEN)
    bad["zeta"] = [0, 0, -2, 2]  # origin outside
    path = write(tmp_path, "inst.json", bad)
    assert main(["validate", path]) == 1


def test_linhull_output(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GOLDEN)
    assert main(["linhull", path]) == 0
    out = capsys.readouterr().out
    assert "hull dimension: 1" in out
    assert "v1: 1 1" in out


def test_solve_verify_round_trip(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", GOLDEN)
    pol = str(tmp_path / "pol.json")
    assert main(["solve", inst, "--out", pol]) == 0
    out = capsys.readouterr().out
    assert "status: feasible" in out
    assert "path: tree search" in out
    assert re.search(r"^lp pivots: [1-9]\d*$", out, re.M)

    saved = json.loads((tmp_path / "pol.json").read_text())
    assert saved["status"] == "feasible"
    assert saved["x"] == [1, 1]
    assert saved["diagnostics"]["nodes_explored"] >= 1
    assert saved["diagnostics"]["lp_pivots"] >= 1

    assert main(["verify", inst, pol]) == 0
    out = capsys.readouterr().out
    assert "verdict: verified" in out
    assert "support: 1 2" in out


def test_verify_rejects_broken_policy(tmp_path):
    inst = write(tmp_path, "inst.json", GOLDEN)
    # wrong rule: verifier must say violations, exit 1
    bad = {
        "status": "feasible",
        "x": [1, 1],
        "r": [2.0, 1.0],
        "D": [[0.0, 0.0], [0.0, 0.0]],
    }
    pol = write(tmp_path, "pol.json", bad)
    assert main(["verify", inst, pol]) == 1


def test_verify_input_errors(tmp_path):
    inst = write(tmp_path, "inst.json", GOLDEN)
    neg = {"status": "feasible", "x": [1, 1], "r": [-2.0, 1.0], "D": [[0, 0], [0, 0]]}
    assert main(["verify", inst, write(tmp_path, "neg.json", neg)]) == 2
    rec = {"status": "infeasible"}
    assert main(["verify", inst, write(tmp_path, "rec.json", rec)]) == 2
    shape = {"status": "feasible", "x": [1], "r": [1.0], "D": [[0.0]]}
    assert main(["verify", inst, write(tmp_path, "shape.json", shape)]) == 2


def test_solve_infeasible_exit(tmp_path):
    infeasible = {
        "n": 2,
        "k": 1,
        "g": 2,
        "M": [[0, 0], [1, 0]],
        "q": [0.5, -0.5],
        "T": [[1], [1]],
        "Theta": [[1], [-1]],
        "zeta": [0, 0],
    }
    path = write(tmp_path, "inst.json", infeasible)
    assert main(["solve", path]) == 1


def test_solve_psd_routing(tmp_path, capsys):
    desk = write(tmp_path, "desk.json", PSD_DESK)
    pol = str(tmp_path / "pol.json")
    assert main(["solve", desk, "--psd", "force", "--out", pol]) == 0
    out = capsys.readouterr().out
    assert "path: forced support" in out
    assert "positive-capable rows: 1" in out
    assert re.search(r"^lp pivots: \d+$", out, re.M)
    # the forced start runs one node, and so one node LP
    assert "nodes explored: 1\nlp calls: 1\n" in out
    diagnostics = json.loads((tmp_path / "pol.json").read_text())["diagnostics"]
    assert "lp_pivots" in diagnostics
    assert diagnostics["lp_calls"] == 1

    golden = write(tmp_path, "golden.json", GOLDEN)
    assert main(["solve", golden, "--psd", "force"]) == 2
    assert main(["solve", golden, "--psd", "auto"]) == 0

    assert main(["solve", desk, "--psd", "off"]) == 0
    out = capsys.readouterr().out
    assert "path: tree search" in out


def test_solve_mixed_instance(tmp_path, capsys):
    path = write(tmp_path, "mixed.json", MIXED_1D)
    out_path = str(tmp_path / "pol.json")
    assert main(["solve", path, "--out", out_path]) == 0
    assert "lp pivots: " in capsys.readouterr().out
    saved = json.loads((tmp_path / "pol.json").read_text())
    assert saved["diagnostics"]["lp_pivots"] >= 0
    assert saved["r"][0] == pytest.approx(0.5)
    assert "E" in saved and "s" in saved
    assert main(["verify", path, out_path]) == 0
    # the shortcut cannot be forced onto a mixed instance
    assert main(["solve", path, "--psd", "force"]) == 2


def test_verify_mixed_instance_needs_free_block(tmp_path, capsys):
    path = write(tmp_path, "mixed.json", MIXED_1D)
    pure = {"status": "feasible", "x": [1], "r": [0.5], "D": [[-0.5]]}
    pol = write(tmp_path, "pure.json", pure)
    assert main(["verify", path, pol]) == 2
    err = capsys.readouterr().err
    assert "needs both E and s" in err
    assert "matmul" not in err


def test_empty_free_block_answers_like_the_pure_twin(tmp_path, capsys):
    # m = 0: JSON writes every empty block as [], which reads at its
    # declared shape, in the instance and in the policy's E
    pure = {key: value for key, value in MIXED_1D.items() if key != "mixed"}
    empty = dict(pure, mixed={"m": 0, "V": [], "W": [], "N": [[]], "p": [], "P": []})
    answers = []
    for name, payload in (("pure", pure), ("empty", empty)):
        inst = write(tmp_path, f"{name}.json", payload)
        pol = str(tmp_path / f"{name}.pol.json")
        code = main(["solve", inst, "--out", pol])
        saved = json.loads((tmp_path / f"{name}.pol.json").read_text())
        assert main(["verify", inst, pol]) == 0
        answers.append((code, saved["status"], saved["r"]))
    assert answers[1] == answers[0] == (0, "feasible", [2.0])
    assert read_instance(str(tmp_path / "empty.json")).mixed.V.shape == (0, 1)
    assert read_policy(str(tmp_path / "empty.pol.json")).E.shape == (0, 1)
    assert "verdict: verified" in capsys.readouterr().out


# k = 0: no uncertainty, so the instance is a plain LCP, solved by r = (1, 0)
CERTAIN = {
    "n": 2,
    "k": 0,
    "g": 0,
    "M": [[1, 0], [0, 1]],
    "q": [-1, 1],
    "T": [[], []],
    "Theta": [],
    "zeta": [],
}


def test_instances_without_uncertainty(tmp_path, capsys):
    # the search, the oracle and the export took k = 0 apart through a
    # reshape(-1, k), so solve, oracle and export exited 2
    path = write(tmp_path, "inst.json", CERTAIN)
    pure = read_instance(path)
    free = MixedExtension(
        V=np.array([[1.0, 0.0]]),
        W=np.eye(1),
        N=np.array([[1.0], [0.0]]),
        p=np.array([-2.0]),
        P=np.zeros((1, 0)),
        y_adjustable=False,
    )
    # the free block's s = 2 meets w_1 >= 0 on its own, so r = 0 there
    for inst, r in ((pure, [1.0, 0.0]), (dataclasses.replace(pure, mixed=free), [0.0, 0.0])):
        basis = compute_lin_hull(inst)
        answers = [
            bnb_solve(inst, basis, SolveOptions(branching=rule, psd=psd))
            for rule, psd in (("heuristic", "auto"), ("index", "off"))
        ]
        answers.append(oracle_enumerate(inst, basis))
        for report in answers:
            assert report.status is SolveStatus.FEASIBLE
            assert report.verification.verified
            assert report.policy.D.shape == (2, 0)
            assert report.policy.r.tolist() == r
        assert len(build_milp(inst, basis).rows_by_tag(TAG_NOMINAL_COMP)) == 4
    pol = str(tmp_path / "pol.json")
    for argv in (
        ["validate", path],
        ["linhull", path],
        ["solve", path, "--psd", "off", "--out", pol],
        ["verify", path, pol],
        ["oracle", path],
        ["export", path],
    ):
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "verdict: verified" in out and "r: 1 0" in out
    assert json.loads((tmp_path / "pol.json").read_text())["D"] == [[], []]


# the box [-1, 1]^2 with the cuts u1 + u2 >= -1.5 and u1 - u2 >= -1.5
BOX_CUTS = dict(
    GOLDEN,
    g=6,
    Theta=[[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1]],
    zeta=[-1, -1, -1, -1, -1.5, -1.5],
)

# -1 <= u1 <= 1 and u2 free: every row is bounded, the set is not
STRIP = {
    "n": 1,
    "k": 2,
    "g": 2,
    "M": [[1]],
    "q": [-1],
    "T": [[1, 0]],
    "Theta": [[1, 0], [-1, 0]],
    "zeta": [-1, -1],
}


def test_solve_runs_one_set_pass(tmp_path, monkeypatch):
    # validation and the hull share one pass from one phase one: a single
    # lp_feasible, then 2k coordinate maximizations and one for each row
    # that no point found on the way shows strict, before the search
    # starts, and no second hull pass
    calls = count_lp_calls(monkeypatch)
    before_search = []
    real_solve = aarlcp.cli.bnb_solve

    def solve(*args, **kwargs):
        before_search.append(list(calls))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(aarlcp.cli, "bnb_solve", solve)
    # GOLDEN's two tight rows are strict at no point, so each takes a
    # maximization; every row of BOX_CUTS is strict at a coordinate maximum
    # (and no affine rule exists for it)
    for name, payload, rows, code in (
        ("golden", GOLDEN, 2, 0),
        ("box_cuts", BOX_CUTS, 0, 1),
    ):
        calls.clear()
        before_search.clear()
        path = write(tmp_path, f"{name}.json", payload)
        assert main(["solve", path, "--psd", "off"]) == code, name
        k = payload["k"]
        assert before_search == [["lp_feasible"] + ["maximize"] * (2 * k + rows)], name


def test_hull_commands_reject_non_compact_set(tmp_path, capsys):
    path = write(tmp_path, "strip.json", STRIP)
    assert main(["validate", path]) == 1
    for command in ("linhull", "oracle", "export", "solve"):
        assert main([command, path]) == 2, command
        assert "the set is unbounded along" in capsys.readouterr().err


# u in [0.5, 2]: the origin is outside the set
OFF_ORIGIN = {
    "n": 1,
    "k": 1,
    "g": 2,
    "M": [[1]],
    "q": [-1],
    "T": [[1]],
    "Theta": [[1], [-1]],
    "zeta": [0.5, -2],
}
# u in [0, 1]: the origin is on the boundary
ON_BOUNDARY = dict(OFF_ORIGIN, zeta=[0, -1])


def test_hull_commands_reject_origin_off_relint(tmp_path, capsys):
    policy = {"status": "feasible", "x": [1], "r": [0], "D": [[0]]}
    pol = write(tmp_path, "pol.json", policy)
    for payload in (OFF_ORIGIN, ON_BOUNDARY):
        path = write(tmp_path, "set.json", payload)
        assert main(["validate", path]) == 1
        assert "zero in relative interior: no" in capsys.readouterr().out
        for argv in (["linhull", path], ["oracle", path], ["export", path], ["solve", path]):
            assert main(argv) == 2, argv
            assert "row 0 does not hold strictly" in capsys.readouterr().err
        assert main(["verify", path, pol]) == 2
        assert "row 0 does not hold strictly" in capsys.readouterr().err


def test_commands_run_one_set_phase_one(tmp_path, monkeypatch):
    # the hull carries the set's phase-one tableau into the search,
    # the PSD shortcut, certification and the oracle
    built = []
    real_lp = aarlcp.core.uncertainty_lp

    def counted(*args):
        built.append(args)
        return real_lp(*args)

    monkeypatch.setattr(aarlcp.core, "uncertainty_lp", counted)
    golden = write(tmp_path, "golden.json", GOLDEN)
    pol = str(tmp_path / "pol.json")
    for argv in (
        ["solve", golden, "--out", pol],
        ["solve", write(tmp_path, "desk.json", PSD_DESK), "--psd", "force"],
        ["solve", write(tmp_path, "mixed.json", MIXED_1D)],
        ["verify", golden, pol],
        ["oracle", golden],
    ):
        built.clear()
        assert main(argv) == 0
        assert len(built) == 1, argv


def test_main_repeats_in_one_process(tmp_path, monkeypatch):
    # the parser is built once; no flag of one call may reach the next
    parser = build_parser()
    assert build_parser() is parser
    seen = []
    real_parse = parser.parse_args

    def parse(argv):
        args = real_parse(argv)
        seen.append(vars(args).copy())
        return args

    monkeypatch.setattr(parser, "parse_args", parse)
    path = write(tmp_path, "inst.json", GOLDEN)
    assert main(["solve", path, "--node-limit", "1", "--branching", "index"]) == 3
    assert main(["solve", path]) == 0
    assert main(["validate", path]) == 0
    first, second, third = seen
    assert (first["node_limit"], first["branching"]) == (1, "index")
    assert (second["node_limit"], second["branching"]) == (None, "heuristic")
    assert (second["psd"], second["out"]) == ("auto", None)
    assert "parallel" not in second
    assert third.keys() == {"command", "instance", "tol", "func"}
    assert third["func"] is aarlcp.cli.cmd_validate


def test_solve_node_limit_exit(tmp_path):
    path = write(tmp_path, "inst.json", GOLDEN)
    assert main(["solve", path, "--node-limit", "1"]) == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--node-limit", "0"],
        ["--node-limit", "-3"],
        ["--parallel"],
    ],
)
def test_solve_rejects_bad_options(tmp_path, capsys, flags):
    # checked before any work, on the PSD path too
    for payload in (GOLDEN, PSD_DESK):
        path = write(tmp_path, "inst.json", payload)
        assert main(["solve", path, *flags]) == 2, flags
        assert capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0", "abc"])
def test_commands_reject_bad_tol(tmp_path, capsys, tol):
    # --tol -1 and --tol nan used to end solve in "pivot limit exhausted"
    path = write(tmp_path, "inst.json", GOLDEN)
    for argv in (
        ["validate", path],
        ["linhull", path],
        ["solve", path],
        ["solve", write(tmp_path, "psd.json", PSD_DESK)],
        ["verify", path, path],
        ["oracle", path],
        ["export", path],
    ):
        assert main([*argv, f"--tol={tol}"]) == 2, argv
        assert "argument --tol" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "inst.json", GOLDEN)
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "supports tested: 4" in out
    assert "support: 1 2" in out
    assert main(["oracle", path, "--limit", "1"]) == 2


def test_oracle_out_writes_a_verifiable_policy(tmp_path):
    inst = write(tmp_path, "inst.json", GOLDEN)
    pol = str(tmp_path / "pol.json")
    assert main(["oracle", inst, "--out", pol]) == 0
    saved = json.loads((tmp_path / "pol.json").read_text())
    assert saved["status"] == "feasible"
    # one node per support tested, as the oracle prints it
    assert saved["diagnostics"]["nodes_explored"] == 4
    # the tolerance that certified the policy is named, as solve names it
    tolerances = saved["diagnostics"]["tolerances"]
    assert tolerances == {"tol": 1e-8, "eps_zero": EPS_ZERO, "verify_tol": EPS_FEAS}
    assert main(["verify", inst, pol]) == 0


def test_solve_tol_reaches_the_search(tmp_path):
    inst = write(tmp_path, "inst.json", GOLDEN)
    pol = str(tmp_path / "pol.json")
    assert main(["solve", inst, "--tol", "1e-9", "--out", pol]) == 0
    text = (tmp_path / "pol.json").read_text()
    assert json.loads(text)["diagnostics"]["tolerances"]["tol"] == 1e-9
    assert '"tol": 1e-09' in text


def test_oracle_command_fails_on_an_uncertified_policy(tmp_path, monkeypatch, capsys):
    def rejecting(*args, **kwargs):
        report = real(*args, **kwargs)
        report.violations = ("rejected for the test",)
        return report

    real = aarlcp.verify.verify_policy
    monkeypatch.setattr(aarlcp.verify, "verify_policy", rejecting)
    path = write(tmp_path, "inst.json", GOLDEN)
    assert main(["oracle", path]) == 3
    assert "rejected for the test" in capsys.readouterr().err


def test_export_command(tmp_path, capsys):
    one_d = {
        "n": 1,
        "k": 1,
        "g": 2,
        "M": [[2]],
        "q": [-4],
        "T": [[1]],
        "Theta": [[1], [-1]],
        "zeta": [-1, -1],
    }
    inst = write(tmp_path, "inst.json", one_d)
    out_path = str(tmp_path / "model.lp")
    assert main(["export", inst, "--big-m", "10", "--out", out_path]) == 0
    text = (tmp_path / "model.lp").read_text()
    assert " sl1: r1 - 10 x1 <= 0" in text.splitlines()

    assert main(["export", inst, "--format", "mps"]) == 0
    assert "ENDATA" in capsys.readouterr().out

    mixed = write(tmp_path, "mixed.json", MIXED_1D)
    assert main(["export", mixed]) == 0
    text = capsys.readouterr().out
    assert " mn1: s1 = 3" in text.splitlines()
    assert " E1_1 free" in text.splitlines()


def test_input_error_handling(tmp_path):
    assert main(["validate", str(tmp_path / "missing.json")]) == 2

    nan = dict(GOLDEN)
    nan["q"] = [float("nan"), -1]
    path = write(tmp_path, "nan.json", nan)
    assert main(["validate", path]) == 2

    short = {k: v for k, v in GOLDEN.items() if k != "zeta"}
    assert main(["validate", write(tmp_path, "short.json", short)]) == 2

    wrong = dict(GOLDEN)
    wrong["n"] = 3  # declared size disagrees with the arrays
    assert main(["validate", write(tmp_path, "wrong.json", wrong)]) == 2

    notjson = tmp_path / "bad.json"
    notjson.write_text("{nope")
    assert main(["validate", str(notjson)]) == 2

    # sizes are JSON integers and y_adjustable a JSON boolean; nothing is
    # truncated or coerced
    one = {k: v for k, v in MIXED_1D.items() if k != "mixed"}
    assert main(["solve", write(tmp_path, "one.json", one)]) == 0
    for key, value in (("n", 1.7), ("n", True), ("n", "1"), ("h", 0.9), ("k", 1.0), ("g", None)):
        path = write(tmp_path, "size.json", dict(one, **{key: value}))
        assert main(["solve", path]) == 2, (key, value)
    for key, value in (("m", 1.5), ("m", False), ("y_adjustable", "false"), ("y_adjustable", 0)):
        mixed = dict(MIXED_1D, mixed=dict(MIXED_1D["mixed"], **{key: value}))
        assert main(["solve", write(tmp_path, "mixed.json", mixed)]) == 2, (key, value)


def test_usage_errors_return_two():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_read_instance_round_trip(tmp_path):
    path = write(tmp_path, "inst.json", MIXED_1D)
    inst = read_instance(path)
    assert inst.mixed is not None
    assert inst.mixed.m == 1
    assert inst.n == 1


def test_policy_floats_round_trip(tmp_path):
    inst = write(tmp_path, "inst.json", GOLDEN)
    out_path = str(tmp_path / "pol.json")
    assert main(["solve", inst, "--out", out_path]) == 0
    pol = read_policy(out_path)
    saved = json.loads((tmp_path / "pol.json").read_text())
    # JSON floats use the shortest round-trip form; equality must be exact
    assert pol.r[0] == saved["r"][0]
    assert pol.D[0, 0] == saved["D"][0][0]
