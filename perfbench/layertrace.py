"""Tracing for the benchmark's per-layer split, installed from outside ``src/``.

Two independent instruments, each used in its own traced repetition:

* :class:`LayerProfile` -- a ``cProfile`` hook whose per-function self time
  and call counts are summed per ``repro.<layer>`` package.  Self time of a
  function outside ``repro`` (a builtin such as ``heapq.heappush``, or the
  standard library) is charged to the layer of the repro function that
  called it.  Whatever the profiler did not attribute to a layer -- the
  benchmark's own loop, ``repro`` code outside the measured layers and the
  builtins it calls, profiler cost -- is ``other``, so the layers plus
  ``other`` add up to the traced repetition's host time.
* :class:`SpanRecorder` -- wraps each layer's entry points and records one
  span per call: layer, function, start, end and parent span.  Spans stay in
  memory and are written out as Chrome trace-event JSON when the run ends.

Import this module after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import cProfile
import gzip
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import repro

#: Layers reported individually; every other ``repro`` package (``faults``,
#: ``parallel``, ``hdf5sim``, ``experiments``, ``apps``) and the top-level
#: modules fall into ``other``.
LAYERS = (
    "simcore", "net", "nvmeof", "ssd", "core", "cpu",
    "metrics", "qos", "workloads", "cluster", "scenarios", "service",
)
OTHER = "other"
#: Spans kept individually by a :class:`SpanRecorder`; later ones are only
#: counted.  Bounds the recorder's memory.
SPAN_LIMIT = 250_000

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The measured layer a source file belongs to, ``other`` for the rest
    of the ``repro`` package, or None for code outside it."""
    if not filename.startswith(_PACKAGE):
        return None
    rest = filename[len(_PACKAGE):].split(os.sep)
    return rest[0] if len(rest) > 1 and rest[0] in LAYERS else OTHER


class LayerProfile:
    """Self time and Python-level call counts per layer for one region."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.wall_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "LayerProfile":
        self._t0 = time.perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self.wall_s = time.perf_counter() - self._t0

    def split(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``(self_s per layer incl. other, calls per layer, profiled_frac)``.

        ``profiled_frac`` is the share of the region's wall time the
        profiler charged to some function.
        """
        self._profile.create_stats()
        stats = self._profile.stats
        own = {func: layer_of(func[0]) for func in stats}
        shares: Dict[tuple, Dict[str, float]] = {}

        def share(func: tuple, seen: frozenset) -> Dict[str, float]:
            """Which layers a function works for, split by the cumulative
            time each caller spent in it."""
            if own.get(func):
                return {own[func]: 1.0}
            if func in seen:  # recursion outside repro: leave it unattributed
                return {OTHER: 1.0}
            if func in shares:
                return shares[func]
            callers = stats[func][4] if func in stats else {}
            total = sum(v[3] for v in callers.values())
            out: Dict[str, float] = {}
            if total <= 0.0:
                out[OTHER] = 1.0
            else:
                for caller, v in callers.items():
                    for layer, frac in share(caller, seen | {func}).items():
                        out[layer] = out.get(layer, 0.0) + frac * v[3] / total
            shares[func] = out
            return out

        self_s = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        calls = {layer: 0 for layer in LAYERS}
        charged = 0.0
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            charged += tt
            layer = own[func]
            if layer is not None:
                if layer != OTHER:  # other is the remainder, set below
                    self_s[layer] += tt
                    calls[layer] += nc
                continue
            for caller, v in callers.items():
                for owner, frac in share(caller, frozenset({func})).items():
                    self_s[owner] += v[2] * frac
        self_s[OTHER] = self.wall_s - sum(self_s[layer] for layer in LAYERS)
        return self_s, calls, charged / self.wall_s if self.wall_s > 0 else 0.0


def _entry_points() -> List[Tuple[str, type, str]]:
    """(layer, class, method) for every wrapped entry point."""
    from repro.cluster.scenario import Scenario
    from repro.core.initiator import OpfInitiator
    from repro.core.target import OpfTarget
    from repro.cpu.core import CpuCore
    from repro.metrics.collector import Collector
    from repro.net.link import Link
    from repro.net.nic import Nic
    from repro.net.rdma import RdmaSocket
    from repro.net.switch import Switch
    from repro.net.tcp import TcpSocket
    from repro.nvmeof.initiator import NvmeOfInitiator
    from repro.nvmeof.target import TargetConnection
    from repro.nvmeof.transport import PduTransport
    from repro.qos.controller import QosController
    from repro.qos.throttle import TokenBucket
    from repro.scenarios.compiler import CompiledProgram
    from repro.service.session import SimSession
    from repro.simcore.engine import Environment
    from repro.ssd.device import IoQpair
    from repro.workloads.perf import PerfGenerator

    return [
        ("cluster", Scenario, "run"),
        ("simcore", Environment, "run"),
        ("simcore", Environment, "advance"),
        ("net", Link, "send"),
        ("net", Switch, "receive"),
        ("net", Nic, "receive"),
        ("net", TcpSocket, "send_message"),
        ("net", RdmaSocket, "send_message"),
        ("nvmeof", PduTransport, "send"),
        ("nvmeof", NvmeOfInitiator, "submit"),
        ("nvmeof", TargetConnection, "_on_pdu"),
        ("ssd", IoQpair, "submit"),
        ("ssd", IoQpair, "submit_batch"),
        ("cpu", CpuCore, "run_later"),
        ("metrics", Collector, "record"),
        ("workloads", PerfGenerator, "_on_complete"),
        ("core", OpfInitiator, "_handle_response"),
        ("core", OpfTarget, "_handle_command"),
        ("qos", QosController, "_tick"),
        ("qos", TokenBucket, "reserve"),
        ("scenarios", CompiledProgram, "__init__"),
        ("service", SimSession, "advance"),
        ("service", SimSession, "telemetry"),
        ("service", SimSession, "make_checkpoint"),
        ("service", SimSession, "from_checkpoint"),
    ]


class SpanRecorder:
    """Spans around each layer's entry points, kept in columnar arrays.

    Every call is counted in the per-entry-point totals of :meth:`summary`;
    only the first :data:`SPAN_LIMIT` spans are kept individually (later
    ones are counted in :attr:`dropped`).
    """

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # (layer, "Class.method")
        self.parent = array("q")
        self.name_ix = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls: List[int] = []
        self.incl_ns: List[int] = []
        self.self_ns: List[int] = []
        self._current = -1
        self._children: List[int] = []  # child time of each open span, innermost last
        self._saved: List[Tuple[type, str, object]] = []

    def __len__(self) -> int:
        return len(self.end)

    @property
    def dropped(self) -> int:
        return sum(self.calls) - len(self)

    def _wrap(self, index: int, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        parent, name_ix, start, end = self.parent, self.name_ix, self.start, self.end
        calls, incl_ns, self_ns = self.calls, self.incl_ns, self.self_ns
        children = self._children
        rec = self

        def span(*args, **kwargs):
            sid = len(end)
            keep = sid < SPAN_LIMIT
            if keep:
                # Reserve the slot so children get higher ids and know their parent.
                outer = rec._current
                parent.append(outer)
                name_ix.append(index)
                start.append(0)
                end.append(0)
                rec._current = sid
            children.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                took = t1 - t0
                nested = children.pop()
                if children:
                    children[-1] += took
                calls[index] += 1
                incl_ns[index] += took
                self_ns[index] += took - nested
                if keep:
                    start[sid] = t0
                    end[sid] = t1
                    rec._current = outer

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        for layer, cls, method in _entry_points():
            raw = cls.__dict__[method]
            index = len(self.names)
            self.names.append((layer, f"{cls.__name__}.{method}"))
            self.calls.append(0)
            self.incl_ns.append(0)
            self.self_ns.append(0)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(index, raw.__func__))
            else:
                wrapped = self._wrap(index, raw)
            self._saved.append((cls, method, raw))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            cls, method, raw = self._saved.pop()
            setattr(cls, method, raw)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> List[Tuple[str, str, int, float, float]]:
        """Per entry point called at least once: (layer, name, calls,
        inclusive s, self s), where self time excludes nested spans."""
        return [
            (layer, name, self.calls[ix], self.incl_ns[ix] * 1e-9, self.self_ns[ix] * 1e-9)
            for ix, (layer, name) in enumerate(self.names)
            if self.calls[ix]
        ]

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (gzip), readable by Perfetto; streamed
        one event at a time so writing costs no more memory than recording."""
        base = self.start[0] if len(self) else 0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit": "ms", "otherData": {"dropped_spans": %d}, '
                     '"traceEvents": [' % self.dropped)
            for sid in range(len(self)):
                layer, name = self.names[self.name_ix[sid]]
                fh.write(("," if sid else "") + json.dumps({
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (self.start[sid] - base) / 1000.0,
                    "dur": (self.end[sid] - self.start[sid]) / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": sid, "parent": self.parent[sid]},
                }))
            fh.write("]}")
