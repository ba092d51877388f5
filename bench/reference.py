"""Reference statuses, independent of the solver under test.

Planted cases are feasible by construction and rescaled cases share their
base's status.  The rest are settled by ``oracle_enumerate`` (exhaustive
support enumeration) of the corpus instance.  The statuses ship in
``oracle.json`` next to this file, keyed by corpus fingerprint; when a corpus
no longer matches its fingerprint the oracle runs in this process before any
timing and its result is cached under ``.bench_cache/``, so the oracle never
runs inside a timed region.  Regenerate ``oracle.json`` with

    python3 bench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import CORPORA, ORACLE_MAX_N  # noqa: E402

UNKNOWN = "unknown"  # the oracle itself failed on the case
SHIPPED = Path(__file__).resolve().parent / "oracle.json"


def fingerprint(cases) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(c.name.encode())
        inst = c.inst
        for arr in (inst.M, inst.q, inst.T, inst.Theta, inst.zeta):
            h.update(arr.tobytes())
        if inst.mixed is not None:
            mx = inst.mixed
            for arr in (mx.V, mx.W, mx.N, mx.p, mx.P):
                h.update(arr.tobytes())
            h.update(b"adj" if mx.y_adjustable else b"pin")
    return h.hexdigest()[:16]


def oracle_statuses(cases) -> dict[str, str]:
    """Enumerate the oracle-referenced cases."""
    from aarlcp import AarlcpError, compute_lin_hull, oracle_enumerate

    out = {}
    for c in cases:
        if c.reference != "oracle":
            continue
        name, inst = c.name, c.inst
        if inst.n > ORACLE_MAX_N:
            raise ValueError(f"case {name} is too large for the oracle")
        try:
            report = oracle_enumerate(inst, compute_lin_hull(inst))
            out[name] = report.status.value
        except AarlcpError:
            out[name] = UNKNOWN
    return out


def shipped() -> dict:
    return json.loads(SHIPPED.read_text()) if SHIPPED.is_file() else {}


def references(workload: str, cache_dir: Path) -> dict[str, str]:
    """Corpus case name -> "feasible" / "infeasible" / "unknown".

    A presentation or a rescaled copy has the status of its corpus case.
    """
    cases = CORPORA[workload]()
    refs = {c.name: "feasible" for c in cases if c.reference == "planted"}
    key = fingerprint(cases)
    entry = shipped().get(workload, {})
    path = cache_dir / f"oracle-{workload}-{key}.json"
    if entry.get("fingerprint") == key:
        cached = entry["statuses"]
    elif path.is_file():
        cached = json.loads(path.read_text())
    else:
        cached = oracle_statuses(cases)
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cached, sort_keys=True))
        tmp.replace(path)
    refs.update(cached)
    return refs


def main() -> None:
    """Run the oracle on every corpus and write oracle.json."""
    out = {}
    for workload, corpus in sorted(CORPORA.items()):
        cases = corpus()
        out[workload] = {
            "fingerprint": fingerprint(cases),
            "statuses": oracle_statuses(cases),
        }
    SHIPPED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
