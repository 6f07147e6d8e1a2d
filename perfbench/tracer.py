"""Outside-in tracer: wraps the library's public functions from outside.

Nothing in the library changes.  ``Tracer.install`` replaces each planned
function with a wrapper in the module that defines it *and* in every
``affinecone`` module that imported it by name (``from .symcone import
symmetrize`` binds a second reference that a patch of ``symcone`` alone
would miss).  Methods are replaced on their class.  ``uninstall`` puts
every original back.

Three wrapper kinds keep the overhead proportionate to the call rate:

* ``span``  -- one record per call (name, parent span, start, end, time
  covered by children); for calls made hundreds of times per command.
* ``timer`` -- a per-name call count and total time, charged to the
  enclosing span as child time; for calls made up to ~10^6 times.
* ``count`` -- a per-name call count only; for microsecond helpers.

Spans stay in memory and are written out by ``dump`` at the end.  A
span's self time is its duration minus the time covered by child spans
and timers.  Each thread has its own span stack and counters, so worker
threads never race on shared state.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from dataclasses import dataclass, field

# (module, attribute, kind): what the benchmark traces.  ``riccati_R`` is
# the vector field ``solve_riccati`` integrates; it resolves through the
# ``riccati`` module globals on every right-hand-side evaluation.  The
# integrator itself is looked up as ``scipy.integrate.solve_ivp``, which is
# where Radau fallbacks become visible.
PLAN = [
    ("affinecone.symcone", "symmetrize", "count"),
    ("affinecone.symcone", "vectorize", "count"),
    ("affinecone.symcone", "unvectorize", "count"),
    ("affinecone.symcone", "mat_exp", "timer"),
    ("affinecone.params", "AffineParams.validate", "span"),
    ("affinecone.params", "AffineParams.effective_drift", "timer"),
    ("affinecone.riccati", "solve_riccati", "span"),
    ("affinecone.riccati", "riccati_R", "timer"),
    ("scipy.integrate", "solve_ivp", "timer"),
    ("affinecone.ergodicity", "decay_certificate", "span"),
    ("affinecone.ergodicity", "log_moment_gate", "span"),
    ("affinecone.ergodicity", "InvariantLaw.exponent", "span"),
    ("affinecone.ergodicity", "dL_table", "span"),
    ("affinecone.ergodicity", "transient_laplace", "span"),
    ("affinecone.ergodicity", "transient_mean", "span"),
    ("affinecone.simulate", "simulate", "span"),
    ("affinecone.simulate", "mc_vs_formula", "span"),
    ("affinecone.simulate", "PathEnsemble.snapshots_to_csv", "span"),
    ("affinecone.simulate", "PathEnsemble.jumps_to_csv", "span"),
]


def trace_name(module: str, attr: str) -> str:
    """Span/counter name of a planned function: ``<layer>.<function>``."""
    layer = "scipy" if module.startswith("scipy") else module.rsplit(".", 1)[-1]
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # name -> [calls, total seconds]


class Tracer:
    """Records spans and counters for the functions in ``PLAN``.

    ``observers`` maps a trace name to a callback ``fn(args, kwargs,
    result)`` run after each successful call, outside the timed interval.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # --- per-thread state ----------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _open(self, name: str) -> Span:
        st = self._state()
        parent = st.stack[-1].id if st.stack else None
        sp = Span(next(self._ids), parent, name, time.perf_counter(),
                  thread=threading.get_ident())
        st.stack.append(sp)
        return sp

    def _close(self, sp: Span, error: BaseException | None = None) -> None:
        sp.end = time.perf_counter()
        if error is not None:
            sp.error = type(error).__name__
        st = self._state()
        st.stack.pop()
        if st.stack:
            st.stack[-1].child_s += sp.duration
        self.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        sp = self._open(name)
        try:
            yield sp
        except BaseException as exc:
            self._close(sp, exc)
            raise
        self._close(sp)

    # --- wrappers --------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        observe = self.observers.get(name)
        state = self._state

        if kind == "span":
            def wrapper(*args, **kwargs):
                sp = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    self._close(sp, exc)
                    raise
                self._close(sp)
                if observe is not None:
                    observe(args, kwargs, out)
                return out
        elif kind == "timer":
            def wrapper(*args, **kwargs):
                st = state()
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    rec = st.counts.get(name)
                    if rec is None:
                        rec = st.counts[name] = [0, 0.0]
                    rec[0] += 1
                    rec[1] += dt
                    if st.stack:
                        st.stack[-1].child_s += dt
                if observe is not None:
                    observe(args, kwargs, out)
                return out
        elif kind == "count":
            def wrapper(*args, **kwargs):
                counts = state().counts
                rec = counts.get(name)
                if rec is None:
                    rec = counts[name] = [0, 0.0]
                rec[0] += 1
                return fn(*args, **kwargs)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return functools.update_wrapper(wrapper, fn)

    # --- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        library = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "affinecone" or k.startswith("affinecone."))]
        try:
            for module_name, attr, kind in PLAN:
                self._install_one(module_name, attr, kind, library)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, module_name, attr, kind, library) -> None:
        module = importlib.import_module(module_name)
        name = trace_name(module_name, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            if not isinstance(orig, types.FunctionType):
                raise TypeError(f"{module_name}.{attr} is not a plain method")
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, kind, orig))
            return
        orig = getattr(module, attr)
        wrapper = self._wrap(name, kind, orig)
        for mod in [module] + [m for m in library if m is not module]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # --- results ---------------------------------------------------------

    def counts(self) -> dict[str, tuple[int, float]]:
        """Per-name ``(calls, total seconds)`` over spans, timers and counters."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (n, s) in st.counts.items():
                rec = out.setdefault(name, [0, 0.0])
                rec[0] += n
                rec[1] += s
        for sp in self.spans:
            rec = out.setdefault(sp.name, [0, 0.0])
            rec[0] += 1
            rec[1] += sp.duration
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        payload = {
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                 "end": s.end, "self_s": s.self_s, "error": s.error, "thread": s.thread}
                for s in self.spans
            ],
            "counts": {k: {"calls": n, "seconds": t} for k, (n, t) in self.counts().items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
