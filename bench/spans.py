"""In-memory span tracing around calls into the package's modules.

The package itself has no tracing hooks.  Instead, a :class:`Tracer` swaps
each traced function for a timing wrapper at every module binding it is
reachable through (``aarlcp.lp.lp_feasible``, ``verify_policy`` as imported
into ``milp``, ``psd`` and ``cli``, and so on), and patches the traced
methods on their class.  :meth:`Tracer.remove` puts the originals back.

A span records its layer, its name, start and end times, the span that
caused it, and the operation (benchmark instance) it belongs to.  Spans stay
in memory; :mod:`layers` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, qualified name) of every traced callable.  The layer is the
# module's last component.  Methods are patched on their class.
TRACED = (
    ("aarlcp.core", "validate"),
    ("aarlcp.core", "uncertainty_lp"),
    ("aarlcp.core", "policy_matches_instance"),
    ("aarlcp.core", "rref_kernel_basis"),
    ("aarlcp.linhull", "compute_lin_hull"),
    ("aarlcp.lp", "lp_feasible"),
    ("aarlcp.lp", "lp_solve"),
    ("aarlcp.milp", "bnb_solve"),
    ("aarlcp.milp", "NodeLpBuilder.__init__"),
    ("aarlcp.milp", "NodeLpBuilder.model"),
    ("aarlcp.milp", "NodeLpBuilder.extract_policy"),
    ("aarlcp.verify", "verify_policy"),
    ("aarlcp.verify", "certify_affine"),
    ("aarlcp.verify", "oracle_enumerate"),
    ("aarlcp.psd", "psd_solve"),
    ("aarlcp.psd", "check_psd"),
    ("aarlcp.psd", "lemke_nominal"),
    ("aarlcp.psd", "compute_support_p"),
    ("aarlcp.mixed", "mixed_solve"),
    ("aarlcp.mixed", "verify_mixed"),
    ("aarlcp.cli", "main"),
    ("aarlcp.cli", "read_instance"),
    ("aarlcp.cli", "write_policy_file"),
)


@dataclass(eq=False)
class Span:
    parent: "Span | None"
    layer: str
    name: str
    op: int
    start: float
    end: float = 0.0
    args: tuple = ()
    result: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Records spans while installed and ``op`` is set; a stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        keep = layer == "lp"  # the model and result feed the LP metrics

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:  # outside an operation: checks, set-up
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span = Span(parent, layer, name, self.op, 0.0)
                self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
            if keep:
                span.args = args
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.result = out
            return out

        return traced

    def install(self) -> None:
        """Swap every traced callable at every binding in loaded aarlcp modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if (key == "aarlcp" or key.startswith("aarlcp.")) and m is not None
        ]
        for modname, qualname in TRACED:
            layer = modname.rsplit(".", 1)[-1]
            span_name = f"{layer}.{qualname.rsplit('.', 1)[-1].lstrip('_')}"
            if qualname == "NodeLpBuilder.__init__":
                span_name = "milp.builder_init"
            owner = sys.modules[modname]
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(original, layer, span_name)
            if len(parts) > 1:  # a method: patch the class once
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
