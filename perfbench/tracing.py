"""Spans and counters around kldescent's public functions, from outside.

``installed(tracer)`` swaps module and class attributes of the package for
wrappers and puts the originals back on exit; the program's source is not
touched.  Coarse calls (instance build, solve, trace I/O, audit checks,
``cli.execute``) each get a span.  Fine-grained calls (oracles, the
``MemoryWindow`` methods, ``Trace.column``) are too many to keep one by
one: they are counted, with their time, on the innermost open span of the
calling thread.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, thread_time
from typing import Optional

LEAST_SQUARES = ("lasso", "quad-l1", "l0-ls", "l1-l2-dc")
SOLVERS = {"npg": "npg.npg_solve", "pgenls": "pgenls.pgenls_solve"}


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    round: Optional[int]
    pooled: bool        # opened on a thread other than the main one
    start: float
    end: float = 0.0
    cpu: float = 0.0    # CPU time of the opening thread inside the span
    attrs: dict = dataclasses.field(default_factory=dict)
    counters: dict = dataclasses.field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def seconds(self) -> float:
        """Wall time; CPU time on a pool thread, where wall time would also
        count the wait for the interpreter lock held by the other threads."""
        return self.cpu if self.pooled else self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round: Optional[int] = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(next(self._ids), stack[-1].id if stack else None, name,
                  threading.get_ident(), self.round,
                  threading.current_thread() is not threading.main_thread(), perf_counter())
        stack.append(sp)
        c0 = thread_time()
        try:
            yield sp
        finally:
            sp.cpu = thread_time() - c0
            sp.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def tick(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            c = stack[-1].counters.setdefault(name, [0, 0.0])
            c[0] += 1
            c[1] += seconds

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans]))


# ---------------------------------------------------------------------------
# wrappers


def _counted(tracer: Tracer, name: str, fn):
    def wrapper(*args):
        t0 = perf_counter()
        out = fn(*args)
        tracer.tick(name, perf_counter() - t0)
        return out
    return wrapper


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
        if after is not None:
            after(sp, out, args, kwargs)
        return out
    return wrapper


def _window_method(tracer: Tracer, name: str, fn):
    # accept() calls window_max(); only the outermost call carries time
    local = tracer._local

    @functools.wraps(fn)
    def wrapper(self, *args):
        if getattr(local, "in_window", False):
            out = fn(self, *args)
            tracer.tick(name, 0.0)
            return out
        local.in_window = True
        t0 = perf_counter()
        try:
            return fn(self, *args)
        finally:
            local.in_window = False
            tracer.tick(name, perf_counter() - t0)
    return wrapper


def _counted_instance(tracer: Tracer, inst):
    """The same instance with every oracle callable counted."""
    p = inst.problem
    f = dataclasses.replace(p.f, value=_counted(tracer, "oracles.f.value", p.f.value),
                            gradient=_counted(tracer, "oracles.f.gradient", p.f.gradient))
    g = dataclasses.replace(p.g, value=_counted(tracer, "oracles.g.value", p.g.value),
                            prox=_counted(tracer, "oracles.g.prox", p.g.prox))
    h = p.h
    if h is not None:
        h = dataclasses.replace(
            h, value=_counted(tracer, "oracles.h.value", h.value),
            subgradient=_counted(tracer, "oracles.h.subgradient", h.subgradient))
    return dataclasses.replace(inst, problem=dataclasses.replace(p, f=f, g=g, h=h))


def _solver_facts(sp, trace, args, kwargs):
    sp.attrs["problem_id"] = kwargs.get("problem_id", "")
    sp.attrs["iterations"] = len(trace) - 1
    sp.attrs["trials"] = sum(r.j_inner + 1 for r in trace.records[1:])


def _written_bytes(sp, out, args, kwargs):
    csv = Path(args[1] if len(args) > 1 else kwargs["path"])
    side = csv.with_suffix(".bin")
    sp.attrs["bytes"] = csv.stat().st_size + (side.stat().st_size if Path(out) == side else 0)


@contextmanager
def installed(tracer: Tracer):
    """Route the package's public calls through ``tracer`` while active."""
    from kldescent import catalog, cli, diagnostics, memory, npg, oracles, pgenls, trace

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    build = _spanned(tracer, "catalog.make_problem", catalog.make_problem)
    make_problem = functools.wraps(catalog.make_problem)(
        lambda *a, **kw: _counted_instance(tracer, build(*a, **kw)))
    patch(catalog, "make_problem", make_problem)
    patch(cli, "make_problem", make_problem)
    patch(oracles, "power_iteration_sq_norm",
          _spanned(tracer, "oracles.power_iteration_sq_norm", oracles.power_iteration_sq_norm))
    for module, fn_name in ((npg, "npg_solve"), (pgenls, "pgenls_solve")):
        wrapped = _spanned(tracer, f"{module.__name__.split('.')[-1]}.{fn_name}",
                           getattr(module, fn_name), _solver_facts)
        patch(module, fn_name, wrapped)
        patch(cli, fn_name, wrapped)
    for method in ("push", "window_max", "accept"):
        patch(memory.MemoryWindow, method,
              _window_method(tracer, f"memory.{method}", getattr(memory.MemoryWindow, method)))
    patch(trace.Trace, "column", _counted(tracer, "trace.column", trace.Trace.column))
    write = _spanned(tracer, "trace.write_trace_csv", trace.write_trace_csv, _written_bytes)
    read = _spanned(tracer, "trace.read_trace_csv", trace.read_trace_csv)
    for owner in (trace, cli):
        patch(owner, "write_trace_csv", write)
        patch(owner, "read_trace_csv", read)
    report = _spanned(tracer, "diagnostics.build_report", diagnostics.build_report)
    patch(diagnostics, "build_report", report)
    patch(cli, "build_report", report)
    for fn_name in ("estimate_lipschitz", "recompute_ell", "check_h4",
                    "check_prop_bound", "fit_rate"):
        patch(diagnostics, fn_name,
              _spanned(tracer, f"diagnostics.{fn_name}", getattr(diagnostics, fn_name)))
    patch(cli, "execute", _spanned(tracer, "cli.execute", cli.execute))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(spans, prefix: str) -> tuple[int, float]:
    calls, secs = 0, 0.0
    for s in spans:
        for name, (n, t) in s.counters.items():
            if name.startswith(prefix):
                calls += n
                secs += t
    return calls, secs


def _round_metrics(spans: list[Span]) -> dict:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    out = {}
    lipschitz = total("oracles.power_iteration_sq_norm")
    out["catalog.build_s"] = total("catalog.make_problem") - lipschitz
    out["oracles.lipschitz_s"] = lipschitz

    # Solver, oracle and window metrics come from main-thread solves only, so
    # that all of them are wall time.  The sweep's pool solves the same
    # configurations that catalog-sweep solves through the API.
    serial = {key: [s for s in by_name.get(key, ()) if not s.pooled] for key in SOLVERS.values()}
    solves = [s for group in serial.values() for s in group]
    iters = sum(s.attrs["iterations"] for s in solves)
    ls = [s for s in solves if s.attrs["problem_id"] in LEAST_SQUARES]

    def matvecs(group):
        products = _calls(group, "oracles.f.value")[0] + 2 * _calls(group, "oracles.f.gradient")[0]
        return _ratio(products, sum(s.attrs["iterations"] for s in group))

    out["oracles.value_calls_per_iter"] = _ratio(_calls(solves, "oracles.f.value")[0], iters)
    out["oracles.gradient_calls_per_iter"] = _ratio(_calls(solves, "oracles.f.gradient")[0], iters)
    out["oracles.prox_calls_per_iter"] = _ratio(_calls(solves, "oracles.g.prox")[0], iters)
    out["oracles.matvecs_per_iter"] = matvecs(ls)
    out["oracles.ms_per_iter"] = 1e3 * _ratio(_calls(solves, "oracles.")[1], iters)

    for prefix, key in SOLVERS.items():
        group = serial[key]
        n = sum(s.attrs["iterations"] for s in group)
        secs = sum(s.seconds for s in group)
        inner = _calls(group, "oracles.")[1] + _calls(group, "memory.")[1]
        out[f"{prefix}.iterations"] = n
        out[f"{prefix}.ms_per_iter"] = 1e3 * _ratio(secs, n)
        out[f"{prefix}.trials_per_iter"] = _ratio(sum(s.attrs["trials"] for s in group), n)
        out[f"{prefix}.loop_ms_per_iter"] = 1e3 * _ratio(secs - inner, n)
        out[f"{prefix}.matvecs_per_iter"] = matvecs(
            [s for s in group if s.attrs["problem_id"] in LEAST_SQUARES])

    out["memory.accept_calls_per_iter"] = _ratio(_calls(solves, "memory.accept")[0], iters)
    out["memory.us_per_iter"] = 1e6 * _ratio(_calls(solves, "memory.")[1], iters)

    out["trace.write_s"] = total("trace.write_trace_csv")
    out["trace.bytes"] = sum(s.attrs["bytes"] for s in by_name.get("trace.write_trace_csv", ()))
    out["trace.read_s"] = total("trace.read_trace_csv")
    audits = by_name.get("diagnostics.build_report", [])
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def subtree(s):
        yield s
        for c in children.get(s.id, ()):
            yield from subtree(c)

    audit_spans = [d for a in audits for d in subtree(a)]
    col_calls, col_secs = _calls(audit_spans, "trace.column")
    out["trace.column_calls"] = _ratio(col_calls, len(audits))
    out["trace.column_s"] = _ratio(col_secs, len(audits))

    out["diagnostics.audit_s"] = total("diagnostics.build_report")
    for fn_name in ("estimate_lipschitz", "recompute_ell", "check_h4",
                    "check_prop_bound", "fit_rate"):
        out[f"diagnostics.{fn_name}_s"] = total(f"diagnostics.{fn_name}")

    out["cli.execute_s"] = total("cli.execute")
    # the runs' own time over the sweep's wall time: above 1 only when the
    # pool's threads overlap work
    out["cli.sweep_parallel_gain"] = _ratio(out["cli.execute_s"], total("cli.sweep"))
    return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Median over rounds of each per-layer metric."""
    per_round: list[list[Span]] = [[] for _ in range(rounds)]
    for s in tracer.spans:
        if s.round is not None:
            per_round[s.round].append(s)
    rows = [_round_metrics(spans) for spans in per_round]
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


UNITS = {"_s": "s", "ms_per_iter": "ms", "us_per_iter": "us", "bytes": "bytes",
         "iterations": "count", "_calls": "count", "_per_iter": "1/iter",
         "parallel_gain": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
