"""In-memory spans around calls into proxsplit's public functions.

The benchmark traces the library from outside: ``Tracer.install`` replaces
the module attributes through which callers look functions up
(``proxsplit.prox.project_psd`` is what ``prox_psd_indicator`` calls, for
example) with wrappers that record a span, and ``Tracer.uninstall`` puts
the originals back. Nothing inside ``src/`` is edited.

A span is ``(name, start, end, parent, thread)``. Each thread appends to its
own buffer, so worker threads of ``proxsplit sweep`` need no lock, and the
parent is the innermost open span of the same thread. Spans stay in memory
until ``save`` writes them at exit.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from array import array

import numpy as np

import proxsplit.cli as cli
from proxsplit import linalg, problems, prox, splitting, tuning

#: Operation-count model of a dense Hermitian eigendecomposition with
#: eigenvectors (tridiagonal reduction, back-transformation, QR sweeps):
#: about 9 n^3 real flops; a complex flop costs four real ones.
EIG_FLOPS_REAL = 9.0
EIG_FLOPS_COMPLEX = 36.0

PARAM_ACTIONS = ("apply", "adjoint", "inverse", "adjoint_inverse", "gram_inverse")

TUNING_FUNCTIONS = ("bqp_estimate", "bqp_separate_estimates", "sr_estimate",
                    "sdp_separate_choices", "sdp_joint_search", "acceleration_gain")


class _Buffer:
    """Spans and eigendecomposition samples of one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        # one entry per eig_hermitian call: span index, dimension, flops, positive eigenvalues
        self.eig_span = array("q")
        self.eig_dim = array("q")
        self.eig_flops = array("d")
        self.eig_pos = array("q")
        # one entry per run_drs call: span index and the solver's own per-iteration times
        self.solves: list[tuple[int, list[float]]] = []


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin(self, name: str) -> int:
        buf = self._buffer()
        idx = len(buf.names)
        buf.names.append(name)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        t = time.perf_counter()
        buf = self._local.buf
        buf.end[idx] = t
        buf.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    # -- wrappers with extra bookkeeping -----------------------------------

    def _wrap_eig(self, fn):
        def eig_hermitian(m):
            idx = self.begin("linalg.eig_hermitian")
            try:
                w, v = fn(m)
                n = w.shape[0]
                pos = n - int(np.searchsorted(w, 0.0, side="right"))
                flops = (EIG_FLOPS_COMPLEX if np.iscomplexobj(v) else EIG_FLOPS_REAL) * n ** 3
            finally:
                self.end(idx)
            buf = self._local.buf
            buf.eig_span.append(idx)
            buf.eig_dim.append(n)
            buf.eig_flops.append(flops)
            buf.eig_pos.append(pos)
            return w, v
        return eig_hermitian

    def _wrap_run_drs(self, fn):
        def run_drs(pair, param, psi0, stop, psi_hook=None):
            pair = dataclasses.replace(pair, f_prox=self.wrap("prox.f", pair.f_prox),
                                       g_prox=self.wrap("prox.g", pair.g_prox))
            param = TracedParam(param, self)
            idx = self.begin("splitting.run_drs")
            try:
                state, trace = fn(pair, param, psi0, stop, psi_hook)
            finally:
                self.end(idx)
            self._local.buf.solves.append((idx, trace.elapsed_ms))
            return state, trace
        return run_drs

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Route proxsplit's lookups through span-recording wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._patch(linalg, "eig_hermitian", self._wrap_eig)
        self._patch(prox, "project_psd", lambda f: self.wrap("linalg.project_psd", f))
        self._patch(prox, "project_toeplitz", lambda f: self.wrap("linalg.project_toeplitz", f))
        for module in (splitting, problems, cli):
            self._patch(module, "run_drs", self._wrap_run_drs)
        for module in (problems, cli):
            for attr in ("gen_bqp", "gen_sr"):
                self._patch(module, attr, lambda f: self.wrap("problems.gen", f))
            self._patch(module, "build_prox_pair",
                        lambda f: self.wrap("problems.build_prox_pair", f))
        for attr in TUNING_FUNCTIONS:
            self._patch(tuning, attr, lambda f, a=attr: self.wrap("tuning." + a, f))
            if hasattr(cli, attr):
                self._patch(cli, attr, lambda f, a=attr: self.wrap("tuning." + a, f))
        self._patch(cli, "solve", lambda f: self.wrap("cli.solve", f))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- export ------------------------------------------------------------

    def spans(self) -> "SpanTable":
        return SpanTable.build(self._buffers)


class TracedParam:
    """Forwarding step parameter whose five actions record ``params.*`` spans."""

    def __init__(self, base, tracer: Tracer):
        self._base = base
        self._tracer = tracer
        self.is_entrywise = base.is_entrywise

    @property
    def is_definiteness_invariant(self) -> bool:
        return self._base.is_definiteness_invariant

    def __getattr__(self, name):
        return getattr(self._base, name)


def _traced_action(action: str):
    span = "params." + action

    def method(self, v):
        idx = self._tracer.begin(span)
        try:
            return getattr(self._base, action)(v)
        finally:
            self._tracer.end(idx)
    method.__name__ = action
    return method


for _action in PARAM_ACTIONS:
    setattr(TracedParam, _action, _traced_action(_action))


@dataclasses.dataclass
class SpanTable:
    """All threads' spans as flat arrays, with self times resolved."""

    names: np.ndarray       # span name per span (object array)
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray      # global index of the parent span, -1 at top level
    thread: np.ndarray
    self_time: np.ndarray   # duration minus the durations of direct children
    eig_span: np.ndarray    # global span index of each eig_hermitian call
    eig_dim: np.ndarray
    eig_flops: np.ndarray
    eig_pos: np.ndarray
    solves: list            # (global span index, per-iteration ms list) per run_drs

    @classmethod
    def build(cls, buffers: list[_Buffer]) -> "SpanTable":
        names, start, end, parent, thread = [], [], [], [], []
        eig = {"span": [], "dim": [], "flops": [], "pos": []}
        solves = []
        offset = 0
        for buf in buffers:
            n = len(buf.names)
            names.extend(buf.names)
            start.append(np.array(buf.start[:n], dtype=float))
            end.append(np.array(buf.end[:n], dtype=float))
            par = np.array(buf.parent[:n], dtype=np.int64)
            parent.append(np.where(par >= 0, par + offset, -1))
            thread.append(np.full(n, buf.thread, dtype=np.int64))
            eig["span"].append(np.array(buf.eig_span, dtype=np.int64) + offset)
            eig["dim"].append(np.array(buf.eig_dim, dtype=np.int64))
            eig["flops"].append(np.array(buf.eig_flops, dtype=float))
            eig["pos"].append(np.array(buf.eig_pos, dtype=np.int64))
            solves.extend((idx + offset, elapsed) for idx, elapsed in buf.solves)
            offset += n

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        start_a, end_a = cat(start, float), cat(end, float)
        parent_a = cat(parent, np.int64)
        dur = end_a - start_a
        child = np.zeros_like(dur)
        has_parent = parent_a >= 0
        np.add.at(child, parent_a[has_parent], dur[has_parent])
        return cls(names=np.array(names, dtype=object), start=start_a, end=end_a,
                   parent=parent_a, thread=cat(thread, np.int64), self_time=dur - child,
                   eig_span=cat(eig["span"], np.int64), eig_dim=cat(eig["dim"], np.int64),
                   eig_flops=cat(eig["flops"], float), eig_pos=cat(eig["pos"], np.int64),
                   solves=solves)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def within(self, windows) -> np.ndarray:
        """Mask of spans that start inside any ``(start, end)`` window."""
        mask = np.zeros(self.start.shape, dtype=bool)
        for lo, hi in windows:
            mask |= (self.start >= lo) & (self.start <= hi)
        return mask

    def named(self, name: str) -> np.ndarray:
        return self.names == name

    def prefixed(self, prefix: str) -> np.ndarray:
        return np.char.startswith(self.names.astype(str), prefix)

    def save(self, path) -> None:
        """Write every span (names as indices into a name table) to ``.npz``."""
        table, codes = np.unique(self.names.astype(str), return_inverse=True)
        np.savez_compressed(path, name_table=table, name=codes, start=self.start,
                            end=self.end, parent=self.parent, thread=self.thread)
