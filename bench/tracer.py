"""Outside-in layer tracer for exformal.

The tracer replaces selected public functions in every ``exformal.*``
module namespace that binds them (``from .symbolic import simplify`` makes
a copy, so each binding is patched) with a timing wrapper, and restores the
originals on ``uninstall``.  The engine itself is not modified.

Rules:

* A call to a function that already has an open span on the same thread is
  folded into that span: ``simplify``, ``diff`` and ``to_text`` recurse
  through their module globals, and only the outermost call is a span.
* Span stacks are thread-local, so ``run --parallel`` worker threads trace
  their own tasks; per-thread totals are merged when the run ends.
* Self time is span time minus the time of its direct child spans.
* Size and outcome counters are taken after a span has closed; their time
  is subtracted from every enclosing span.

Spans of the non-``symbolic`` layers are kept in memory (the ``symbolic``
constructors run millions of times and are only aggregated) and written
out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time

TRACED = {
    "symbolic": ("parse_expr", "add", "mul", "diff", "simplify", "is_zero",
                 "to_text"),
    "exterior": ("wedge", "ext_d", "pullback", "interior_product",
                 "classify_closure"),
    "geometry": ("hodge", "codifferential", "maxwell_residual"),
    "connection": ("christoffel", "riemann", "ricci_and_scalar",
                   "einstein_tensor", "bianchi_residual", "torsion"),
    "transform": ("legendre", "poisson_bracket", "integrating_factor",
                  "hamilton_flow_check", "poincare_cartan"),
    "catalog": ("verify_maxwell", "verify_hamiltonian", "verify_einstein"),
    "cli": ("load_scenario",),
}

# Names of the functions whose outputs are sized in ``out_nodes``.
SIZED = {"symbolic.simplify"} | {f"connection.{f}" for f in TRACED["connection"]}

# Extra counters besides calls/self_s/total_s, in reporting order.
COUNTERS = (
    ["symbolic.simplify.out_nodes"]
    + [f"symbolic.is_zero.{v}" for v in ("zero", "nonzero", "unknown", "sampled")]
    + ["exterior.classify_closure.exact", "exterior.classify_closure.closed"]
    + [f"connection.{f}.out_nodes" for f in TRACED["connection"]]
)

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def node_count(obj, memo=None) -> int:
    """Tree size of every expression inside ``obj``.

    ``obj`` may be an expression, a nested tuple/list of them, or an object
    holding them in ``comps`` (tensors) or ``gamma`` (connections).  A
    shared subtree counts once per occurrence, as it prints.
    """
    if memo is None:
        memo = {}
    if isinstance(obj, (tuple, list)):
        return sum(node_count(o, memo) for o in obj)
    for holder in ("comps", "gamma"):
        if hasattr(obj, holder) and not hasattr(obj, "key"):
            return node_count(getattr(obj, holder), memo)
    key = id(obj)
    if key in memo:
        return memo[key]
    size = 1
    for attr in ("terms", "factors"):
        children = getattr(obj, attr, None)
        if children is not None:
            size += sum(node_count(c, memo) for c in children)
    for attr in ("base", "arg"):
        child = getattr(obj, attr, None)
        if child is not None:
            size += node_count(child, memo)
    memo[key] = size
    return size


class _ThreadState:
    __slots__ = ("stack", "active", "stats", "counters", "spans", "name")

    def __init__(self):
        # open frames: [name, child_s, span_id, zero-test canon, hook_s]
        self.stack = []
        self.active = set()   # names with an open span on this thread
        self.stats = {}       # name -> [calls, total_s, self_s]
        self.counters = {}    # counter name -> int
        self.spans = []       # [name, request, start, end, parent_span_id]
        self.name = threading.current_thread().name


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []
        self._plain_simplify = None
        self.request = None   # set by the caller to tag spans (file index)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"exformal.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod}.{fn}"
        self._plain_simplify = sys.modules["exformal.symbolic"].simplify
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "exformal" and not modname.startswith("exformal."):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- spans ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name: str, fn):
        keep_span = not name.startswith("symbolic.")
        after = self._after_hook(name)
        clock = time.perf_counter
        local = self._local

        def traced(*args, **kwargs):
            st = getattr(local, "st", None) or self._state()
            if name in st.active:
                return fn(*args, **kwargs)
            stack = st.stack
            span_id = -1
            if keep_span:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                span_id = len(st.spans)
                st.spans.append([name, self.request, 0.0, 0.0, parent])
            frame = [name, 0.0, span_id, None, 0.0]
            st.active.add(name)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.active.discard(name)
                hooks = frame[4]          # counter time inside this call
                dur = t1 - t0 - hooks
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][4] += hooks
                if keep_span:
                    st.spans[span_id][2:4] = [t0, t1]
            if after is not None:
                h0 = clock()
                after(st, frame, args, out)
                if stack:
                    stack[-1][4] += clock() - h0
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- counters (run after the span has closed) ---------------------------

    def _after_hook(self, name: str):
        if name == "symbolic.simplify":
            def after(st, frame, args, out):
                _bump(st, "symbolic.simplify.out_nodes", node_count(out))
                parent = st.stack[-1] if st.stack else None
                if parent is not None and parent[0] == "symbolic.is_zero" \
                        and parent[3] is None:
                    # the zero test's own canonical form of its argument
                    parent[3] = out
            return after
        if name in SIZED:
            key = f"{name}.out_nodes"

            def after(st, frame, args, out):
                _bump(st, key, node_count(out))
            return after
        if name == "symbolic.is_zero":
            plain = self._plain_simplify

            def after(st, frame, args, out):
                _bump(st, f"symbolic.is_zero.{out.name.lower()}", 1)
                canon = frame[3] if frame[3] is not None else plain(args[0])
                if type(canon).__name__ != "Rat":
                    _bump(st, "symbolic.is_zero.sampled", 1)
            return after
        if name == "exterior.classify_closure":
            def after(st, frame, args, out):
                status = out.status.value.lower()
                if status in ("exact", "closed"):
                    _bump(st, f"exterior.classify_closure.{status}", 1)
            return after
        return None

    # -- results ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Merged (stats, counters) over all threads that ran spans."""
        stats = {name: [0, 0.0, 0.0] for name in FUNCTIONS}
        counters = {name: 0 for name in COUNTERS}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, rec in st.stats.items():
                acc = stats[name]
                for i in range(3):
                    acc[i] += rec[i]
            for name, n in st.counters.items():
                counters[name] += n
        return stats, counters

    def write_spans(self, path: str) -> int:
        with self._lock:
            threads = list(self._threads)
        payload = {
            "fields": ["name", "request", "start", "end", "parent"],
            "threads": {st.name: st.spans for st in threads},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return sum(len(st.spans) for st in threads)


def _bump(st: _ThreadState, key: str, n: int) -> None:
    st.counters[key] = st.counters.get(key, 0) + n
