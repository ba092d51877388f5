"""Self-checks of the benchmark; run with ``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import aarlcp  # noqa: E402
import aarlcp.cli  # noqa: E402
from workloads import CORPORA, presented  # noqa: E402

SEED = 3

# A few cases per workload keep the traced passes short; each subset holds
# planted and oracle-referenced cases, and the cli one a mixed pair and a
# gram-matrix case for the PSD shortcut.
SUBSETS = {
    "search": {"planted0-n8-s4", "random0-n8", "planted1-n9-s5", "random1-n8"},
    "psd": {"planted0-n10-k2-s1", "planted5-n12-k3-s1", "random0-n6-k2", "random1-n7-k3"},
    "cli": {
        "g1-planted",
        "g1-random",
        "g1-mixed-pinned",
        "g1-mixed-adjustable",
        "g1-mixed-random",
        "psd-planted5-n12-k3-s1",
    },
}


def _arrays(case):
    inst = case.inst
    out = [inst.M, inst.q, inst.T, inst.Theta, inst.zeta]
    if inst.mixed is not None:
        mx = inst.mixed
        out += [mx.V, mx.W, mx.N, mx.p, mx.P, np.array([mx.y_adjustable])]
    return out


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_same_seed_same_inputs(name):
    for workload in (name, name + "-permuted"):
        a, b = presented(workload, SEED), presented(workload, SEED)
        assert [c.name for c in a] == [c.name for c in b]
        for ca, cb in zip(a, b):
            for xa, xb in zip(_arrays(ca), _arrays(cb)):
                assert np.array_equal(xa, xb)
    # search, cli and psd solve every corpus instance as drawn, in a seeded order
    corpus = {c.name: c for c in CORPORA[name]()}
    a, other = presented(name, SEED), presented(name, SEED + 1)
    assert sorted(c.name for c in a) == sorted(corpus)
    assert [c.name for c in other] != [c.name for c in a]
    for c in a:
        for xa, xb in zip(_arrays(c), _arrays(corpus[c.name])):
            assert np.array_equal(xa, xb)
    # a permuted variant presents every instance afresh for each seed
    a, other = presented(name + "-permuted", SEED), presented(name + "-permuted", SEED + 1)
    assert [c.name for c in other] == [c.name for c in a]
    assert not all(np.array_equal(x.inst.T, y.inst.T) for x, y in zip(a, other))


COUNTS = (
    "lp.node.calls",
    "lp.set.calls",
    "lp.probe.calls",
    "milp.nodes",
    "mixed.nodes",
    "core.validate.lp_calls",
    "linhull.lp_calls",
    "verify.lp_calls",
    "trace.spans",
)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_traced_pass_repeats_and_checks_itself(name, tmp_path):
    results = []
    for attempt in range(2):
        wl = run.Workload(name, SEED, tmp_path / f"w{attempt}", names=SUBSETS[name])
        assert len(wl.cases) == len(SUBSETS[name])
        metrics, tally, problems = run.traced_pass(wl)
        # span checks: every LP span has a parent layer, and per-layer self
        # times sum to no more than the pass's busy time
        assert problems == []
        results.append((metrics, tally))
    (m1, t1), (m2, t2) = results
    assert t1.answers == t2.answers
    assert t1.wrong == t2.wrong
    for key in COUNTS:
        assert m1[key] == m2[key], key
    # every LP call was made by a span of some layer
    calls = sum(m1[f"lp.{kind}.calls"][0] for kind in ("node", "set", "probe"))
    assert calls > 0
    assert m1["trace.layer_sum_s"][0] <= t1.busy_s
    # the tracer put every original binding back
    assert not hasattr(aarlcp.milp.verify_policy, "__wrapped__")
    assert not hasattr(aarlcp.lp.lp_feasible, "__wrapped__")
    assert not hasattr(aarlcp.cli.main, "__wrapped__")


def test_tracer_covers_every_binding():
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        for mod in (aarlcp.milp, aarlcp.psd, aarlcp.cli, aarlcp.verify):
            assert hasattr(mod.verify_policy, "__wrapped__")
        assert hasattr(aarlcp.lp.lp_feasible, "__wrapped__")
        assert hasattr(aarlcp.NodeLpBuilder.model, "__wrapped__")
    assert not hasattr(aarlcp.psd.verify_policy, "__wrapped__")
    assert not hasattr(aarlcp.NodeLpBuilder.model, "__wrapped__")


def test_traced_run_reports_overhead():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli",
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= run.MIN_SAMPLES
    metrics = result["metrics"]
    assert "trace.overhead_frac" in metrics
    assert metrics["trace.layer_sum_s"]["value"] > 0


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
