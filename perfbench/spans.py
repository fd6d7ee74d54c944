"""Span recorder that wraps qorbit's callables from outside the program.

Wrapped are every public function where its callers look it up (the module
attributes of ``qorbit`` and ``qorbit.*``), the validating constructors of
``DensityMatrix``, ``BlochTensor`` and ``RotationTriple`` (through their
``__post_init__``), ``DensityMatrix.eigenvalues`` and the optimizer that
``qorbit.equivalence`` calls (``minimize``). No program source is edited;
``install`` returns an undo function that puts every original back.

Each call records one span: name, start, end, parent span, op id and self
time. A stack of open spans gives parents; when a span closes its duration
is charged to its parent's children, so self time is the duration minus
the time covered by child spans. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("states", "bloch", "local_action", "invariants", "canonical",
           "reconstruction", "orbit_dim", "equivalence", "fileio", "cli")
ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index, op id, self ns, error)
        self.spans: list = []
        self._stack: list[list[int]] = []
        self.op = -1
        # Results observed at a span boundary, as (name, op id, value).
        self.observed: list[tuple[str, int, object]] = []
        self._root = self.wrap(lambda fn, *args: fn(*args), ROOT)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        nid = self.name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (nid, start, end, parent, self.op, end - start - frame[1], error)
            if observe is not None:
                self.observed.append((name, self.op, observe(result)))
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span, so each op's self times sum to its span."""
        self.op = op_id
        try:
            return self._root(fn, *args)
        finally:
            self.op = -1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent,self_ns,error\n")
            for nid, start, end, parent, op, self_ns, error in self.spans:
                fh.write(f"{op},{self.names[nid]},{start},{end},{parent},{self_ns},{error or ''}\n")


def _span_name(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"


def _generic(report) -> bool:
    return bool(report.generic)


def install(tracer: Tracer):
    """Wrap the program's callables; returns a function that undoes it."""
    import qorbit
    from qorbit import bloch, equivalence, local_action, states

    undo = []

    def patch(owner, attr, wrapped):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    modules = [qorbit] + [sys.modules[f"qorbit.{m}"] for m in MODULES if f"qorbit.{m}" in sys.modules]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("qorbit")):
                continue
            name = _span_name(obj)
            observe = _generic if name == "canonical.genericity" else None
            patch(mod, attr, tracer.wrap(obj, name, observe))
    for cls, name in ((states.DensityMatrix, "states.DensityMatrix"),
                      (bloch.BlochTensor, "bloch.BlochTensor"),
                      (local_action.RotationTriple, "local_action.RotationTriple")):
        patch(cls, "__post_init__", tracer.wrap(cls.__post_init__, name))
    patch(states.DensityMatrix, "eigenvalues",
          tracer.wrap(states.DensityMatrix.eigenvalues, "states.eigenvalues"))
    patch(equivalence, "minimize",
          tracer.wrap(equivalence.minimize, "equivalence.oracle.minimize",
                      observe=lambda result: int(result.nfev)))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
