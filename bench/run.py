"""Seeded end-to-end and per-layer benchmark for the aarlcp solver.

Usage, from the repository root:

    python3 bench/run.py --workload search|cli|psd --seed N --seconds S --trace 0|1

Each operation solves one generated instance; the inputs depend only on the
seed.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same timed phase runs, followed by
one traced pass over the workload (spans around every call into each
module), the HiGHS root-LP reference and, on ``search``, the serial versus
``parallel=True`` comparison, and the last line carries the per-layer
metrics.  Any answer that disagrees with its reference makes ``correct``
false.  The ``-permuted`` variants of the workloads show known defects and
are not part of BENCHMARK.json.  See bench/README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: on a 2-core machine the threaded BLAS kept the second
# core spinning (CPU time twice the wall time) and made node LPs no faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_cache"
SETUP_REPEATS = 21
MIN_SAMPLES = 100

FAILURE_CAUSES = ("numerical", "node_limit", "cli_exit3")
# search and cli are the workloads in BENCHMARK.json; psd and the
# -permuted variants (which show known defects, see workloads.py) run on
# request.
WORKLOADS = ("search", "cli", "psd", "search-permuted", "cli-permuted", "psd-permuted")


def import_package():
    """Import aarlcp from this checkout's sources, never from elsewhere."""
    if not (SRC / "aarlcp" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aarlcp

    if Path(aarlcp.__file__).resolve().parent != (SRC / "aarlcp").resolve():
        raise SystemExit(f"error: imported aarlcp from {aarlcp.__file__}")
    return aarlcp


def import_time() -> float:
    """Time a fresh interpreter spends in ``import aarlcp``."""
    code = (
        "import time, sys; t = time.perf_counter(); import aarlcp;"
        " sys.stdout.write(repr(time.perf_counter() - t))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


@dataclass
class Outcome:
    status: str | None = None  # "feasible" / "infeasible"; None when failed
    cause: str | None = None  # failure cause, see FAILURE_CAUSES
    policy: object = None


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    busy_s: float = 0.0
    samples: list = field(default_factory=list)
    causes: dict = field(default_factory=lambda: dict.fromkeys(FAILURE_CAUSES, 0))
    wrong: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # (case, status or cause)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


class Workload:
    """Inputs, the timed operation and its correctness check for one workload."""

    def __init__(self, name: str, seed: int, work_dir: Path, names=None):
        """``names`` restricts every pass to those cases (for the self-tests)."""
        import aarlcp
        import aarlcp.cli
        from reference import references
        from workloads import corpus_of

        self.name = name
        self.kind = corpus_of(name)
        self.aarlcp = aarlcp
        self.seed = seed
        self.names = names
        self.work_dir = work_dir
        self.refs = references(self.kind, STATE)
        self._passes = {}
        self._bases = {}
        self.files = {}
        self.cases = self.pass_cases(0)

    def pass_cases(self, index: int) -> list:
        """The cases of one pass; each pass has its own order or presentation.

        On cli the instance files are written here, outside any timing.
        """
        if index not in self._passes:
            from workloads import presented

            cases = presented(self.name, self.seed, index)
            if self.names is not None:
                cases = [c for c in cases if c.name in self.names]
            if self.kind == "cli":
                self.work_dir.mkdir(parents=True, exist_ok=True)
                for i, c in enumerate(cases):
                    stem = self.work_dir / f"p{index}-{i}"
                    inst_path = stem.with_suffix(".json")
                    inst_path.write_text(json.dumps(instance_json(c.inst)))
                    self.files[id(c)] = (str(inst_path), f"{stem}.policy.json")
            self._passes[index] = cases
        return self._passes[index]

    def expected(self, case) -> str:
        return self.refs[case.base if case.reference == "rescaled" else case.name]

    def basis(self, case):
        """Hull basis of a case, for checks outside any timed region."""
        key = id(case)
        if key not in self._bases:
            self._bases[key] = (case, self.aarlcp.compute_lin_hull(case.inst))
        return self._bases[key][1]

    def run(self, case, parallel: bool = False) -> Outcome:
        """The timed operation: one instance, from data to certified answer."""
        a = self.aarlcp
        if self.kind == "cli":
            inst_path, pol_path = self.files[id(case)]
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = a.cli.main(["solve", inst_path, "--out", pol_path])
            if code == 3:
                return Outcome(cause="cli_exit3")
            status = {0: "feasible", 1: "infeasible"}.get(code, f"exit{code}")
            return Outcome(status=status)
        try:
            basis = a.compute_lin_hull(case.inst)
            if self.kind == "psd":
                rep = a.psd_solve(case.inst, basis)
            else:
                rep = a.bnb_solve(case.inst, basis, a.SolveOptions(parallel=parallel))
        except a.NumericalFailure:
            return Outcome(cause="numerical")
        except a.NodeLimitExceeded:
            return Outcome(cause="node_limit")
        return Outcome(status=rep.status.value, policy=rep.policy)

    def check(self, case, out: Outcome) -> str | None:
        """None when the answer is right; otherwise what is wrong with it."""
        from reference import UNKNOWN

        a = self.aarlcp
        expected = self.expected(case)
        if expected != UNKNOWN and out.status != expected:
            return f"{case.name}: answered {out.status}, reference {expected}"
        if self.kind == "cli":
            _, pol_path = self.files[id(case)]
            payload = json.loads(Path(pol_path).read_text())
            if payload.get("status") != out.status:
                return f"{case.name}: policy file says {payload.get('status')}"
            if out.status == "feasible":
                out.policy = a.cli.read_policy(pol_path)
        if out.status == "feasible":
            basis = self.basis(case)
            if case.inst.mixed is not None:
                report = a.verify_mixed(case.inst, basis, out.policy)
            else:
                report = a.verify_policy(case.inst, basis, out.policy)
            if not report.verified:
                return f"{case.name}: policy fails certification: {report.violations}"
        elif out.status != "infeasible":
            return f"{case.name}: no definitive answer ({out.status})"
        return None

    def record(self, tally: Tally, case, out: Outcome, elapsed: float) -> None:
        tally.attempted += 1
        tally.busy_s += elapsed
        tally.answers.append((case.name, out.status or out.cause))
        if out.cause is not None:
            tally.causes[out.cause] += 1
            tally.samples.append(math.inf)
            return
        tally.samples.append(elapsed)
        problem = self.check(case, out)
        if problem is None:
            tally.ok += 1
        else:
            tally.wrong.append(problem)

    def timed_phase(self, seconds: float) -> tuple[Tally, list[float], list[float]]:
        """Whole passes over the cases until the busy time reaches seconds.

        Only whole passes run, so every case weighs the same in every
        metric.  At least MIN_SAMPLES operations run, so the 90th
        latency percentile has ten samples beyond it.  Between operations,
        SETUP_REPEATS import times are taken, evenly spread over the busy
        time, so that set-up is sampled across the same stretch of machine
        time as the operations.  Returns the tally, the per-case latencies
        of the first pass and the import times.
        """
        tally = Tally()
        first = []
        imports = []
        gc.collect()
        index = 0
        while tally.busy_s < seconds or tally.attempted < MIN_SAMPLES:
            for case in self.pass_cases(index):
                t0 = time.perf_counter()
                out = self.run(case)
                elapsed = time.perf_counter() - t0
                self.record(tally, case, out, elapsed)
                if index == 0:
                    first.append(elapsed if out.cause is None else math.inf)
                while (
                    len(imports) < SETUP_REPEATS
                    and tally.busy_s >= len(imports) * seconds / SETUP_REPEATS
                ):
                    imports.append(import_time())
            index += 1
        return tally, first, imports


def instance_json(inst) -> dict:
    data = {
        "n": inst.n,
        "k": inst.k,
        "g": inst.g,
        "h": inst.h,
        "M": inst.M.tolist(),
        "q": inst.q.tolist(),
        "T": inst.T.tolist(),
        "Theta": inst.Theta.tolist(),
        "zeta": inst.zeta.tolist(),
    }
    if inst.mixed is not None:
        mx = inst.mixed
        data["mixed"] = {
            "m": mx.m,
            "V": mx.V.tolist(),
            "W": mx.W.tolist(),
            "N": mx.N.tolist(),
            "p": mx.p.tolist(),
            "P": mx.P.tolist(),
            "y_adjustable": mx.y_adjustable,
        }
    return data


def latency(samples, p: float, cap: float) -> float:
    """Percentile with failures as infinitely slow.

    When the percentile lands on a failure, the answer never came within the
    measured window, so the window length stands in for it.
    """
    from layers import percentile

    value = percentile(samples, p)
    return cap if math.isinf(value) else value


def end_to_end(tally: Tally, setup_s: float) -> dict:
    return {
        "instances_per_s": (tally.ok / tally.busy_s, "1/s"),
        "latency_s.p50": (latency(tally.samples, 0.5, tally.busy_s), "s"),
        "latency_s.p90": (latency(tally.samples, 0.9, tally.busy_s), "s"),
        "setup_s": (setup_s, "s"),
    }


def failure_metrics(tally: Tally) -> dict:
    out = {"failed_frac": (tally.failed / tally.attempted, "ratio")}
    for cause in FAILURE_CAUSES:
        out[f"failed.{cause}"] = (tally.causes[cause], "count")
    return out


def traced_pass(wl: Workload) -> tuple[dict, Tally, list[str]]:
    """One pass in case order with spans recorded; deterministic counts."""
    from layers import layer_metrics, orphan_lp_spans, self_time_by_layer
    from spans import Tracer

    tally = Tally()
    tracer = Tracer()
    gc.collect()
    with tracer:
        for i, case in enumerate(wl.cases):
            tracer.op = i
            t0 = time.perf_counter()
            out = wl.run(case)
            elapsed = time.perf_counter() - t0
            tracer.op = -1
            wl.record(tally, case, out, elapsed)
    spans = tracer.spans
    metrics = layer_metrics(spans)
    problems = []
    orphans = orphan_lp_spans(spans)
    if orphans:
        problems.append(f"{orphans} LP spans have no parent layer")
    layer_sum = sum(self_time_by_layer(spans).values())
    if layer_sum > tally.busy_s:
        problems.append(
            f"per-layer self times sum to {layer_sum:.6f}s, above {tally.busy_s:.6f}s"
        )
    metrics["trace.spans"] = (len(spans), "count")
    metrics["trace.layer_sum_s"] = (layer_sum, "s")
    return metrics, tally, problems


def root_lp_reference(wl: Workload) -> dict:
    """Median root node LP time: HiGHS when SciPy is present, and aarlcp."""
    a = wl.aarlcp
    ours = []
    highs = []
    try:
        from scipy.optimize import linprog
    except ImportError:
        linprog = None
    for case in wl.cases:
        model = a.NodeLpBuilder(case.inst, wl.basis(case)).model(
            [a.UNFIXED] * case.inst.n
        )
        t0 = time.perf_counter()
        try:
            a.lp_feasible(model)
        except a.NumericalFailure:
            pass
        ours.append((time.perf_counter() - t0) * 1e3)
        if linprog is not None:
            args = linprog_args(model)
            t0 = time.perf_counter()
            linprog(method="highs", **args)
            highs.append((time.perf_counter() - t0) * 1e3)
    out = {"ref.aarlcp_root_ms": (statistics.median(ours), "ms")}
    if highs:
        out["ref.highs_root_ms"] = (statistics.median(highs), "ms")
    return out


def linprog_args(model) -> dict:
    import numpy as np

    ub, ub_rhs, eq, eq_rhs = [], [], [], []
    for coeffs, rel, rhs in model.rows:
        if rel == "<=":
            ub.append(coeffs)
            ub_rhs.append(rhs)
        elif rel == ">=":
            ub.append(-coeffs)
            ub_rhs.append(-rhs)
        else:
            eq.append(coeffs)
            eq_rhs.append(rhs)
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(model.lower, model.upper)
    ]
    return {
        "c": np.zeros(model.num_vars),
        "A_ub": np.array(ub) if ub else None,
        "b_ub": np.array(ub_rhs) if ub else None,
        "A_eq": np.array(eq) if eq else None,
        "b_eq": np.array(eq_rhs) if eq else None,
        "bounds": bounds,
    }


def parallel_speedup(wl: Workload, serial: list[float]) -> tuple[float, list[str]]:
    """Serial over parallel=True wall time on the same cases (2 threads).

    Uses the first quarter of the cases in the seeded order, planted and
    random alike, so that a traced search run stays well inside three
    minutes; the serial times are those of the first timed pass.
    """
    t_serial = t_parallel = 0.0
    problems = []
    quarter = len(wl.cases) // 4
    for case, ts in zip(wl.cases[:quarter], serial[:quarter]):
        t0 = time.perf_counter()
        out = wl.run(case, parallel=True)
        tp = time.perf_counter() - t0
        if out.cause is not None or math.isinf(ts):
            continue
        problem = wl.check(case, out)
        if problem is not None:
            problems.append("parallel: " + problem)
        t_serial += ts
        t_parallel += tp
    return (t_serial / t_parallel if t_parallel else 0.0), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    t0 = time.perf_counter()
    work_dir = STATE / f"work-{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    try:
        wl = Workload(args.workload, args.seed, work_dir)
        wl.run(wl.cases[0])  # warm-up: lazy imports inside the package
        t1 = time.perf_counter()
        tally, first_pass, imports = wl.timed_phase(args.seconds)
        t2 = time.perf_counter()
        setup_s = statistics.median(imports)
        print(f"set-up {t1 - t0:.1f}s, timed phase with import samples {t2 - t1:.1f}s", file=sys.stderr)
        problems = list(tally.wrong)
        metrics = end_to_end(tally, setup_s)
        if args.trace:
            layer, traced, trace_problems = traced_pass(wl)
            problems += traced.wrong + trace_problems
            traced_ips = traced.ok / traced.busy_s
            layer["trace.overhead_frac"] = (
                metrics["instances_per_s"][0] / traced_ips - 1.0,
                "ratio",
            )
            layer.update(failure_metrics(traced))
            layer.update(root_lp_reference(wl))
            speedup = 0.0
            if wl.kind == "search":
                speedup, par_problems = parallel_speedup(wl, first_pass)
                problems += par_problems
            layer["milp.parallel_speedup"] = (speedup, "ratio")
            metrics = layer
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    from reference import UNKNOWN

    unknown = sum(1 for c in wl.cases if wl.expected(c) == UNKNOWN)
    print(
        f"workload {args.workload} seed {args.seed}: {tally.attempted} instances"
        f" ({len(wl.cases)} distinct, {unknown} without reference) in"
        f" {tally.busy_s:.2f}s busy; failed {tally.failed}"
        f" (failed_frac {tally.failed / tally.attempted:.4f}: "
        + ", ".join(f"{k} {v}" for k, v in tally.causes.items())
        + f"); latency samples {len(tally.samples)}"
    )
    for name, (value, unit) in end_to_end(tally, setup_s).items():
        print(f"  {name:<20} {value:.6g} {unit}")
    for problem in problems:
        print(f"  WRONG: {problem}")
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
