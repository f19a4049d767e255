"""Span recorder and the layer wrappers the benchmark installs.

The benchmark never edits the program. It wraps each layer's public entry
point by rebinding every module attribute of the loaded ``randspec`` package
that refers to it (``randspec.eigensolve.sturm_counts``,
``randspec.probes.sturm_counts``, ``randspec.ids.sturm_counts``, ...), so
every caller that looks the name up at call time goes through the wrapper.

Spans are kept in memory: name, start, end, parent, run id, pid and a few
integer attributes. Clocks are ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux), so spans recorded in pool workers line up with the parent's. The
``map_blocks`` wrapper also wraps the block function, so spans recorded in
worker processes travel back with each block's result.

Two modes:

* ``install(trace=False)`` only records the first probe entry (for
  ``setup_s``) and the eigenvalues ``batched_eigenvalues_in`` returns (for
  the scipy cross-check); it adds one Python call per probe and per
  extraction call.
* ``install(trace=True)`` records spans at every layer boundary.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

import numpy as np


class SetupDone(BaseException):
    """Raised at the first probe when only the set-up time is wanted.

    A BaseException, so the CLI's per-probe ``except Exception`` does not
    catch it.
    """


class Recorder:
    """Spans and captures of one process."""

    def __init__(self):
        self.reset(None)
        self.main_pid = self.pid
        self.run_id = "run"
        self.first_probe = None
        self.stop_at_first_probe = False
        self.captures = []

    def reset(self, parent):
        self.pid = os.getpid()
        self.spans = []
        self.stack = [parent] if parent is not None else []
        self._next = 0

    def open(self, name):
        sid = f"{self.pid}-{self._next}"
        self._next += 1
        span = {
            "id": sid,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self.stack[-1] if self.stack else None,
            "run": self.run_id,
            "pid": self.pid,
            "attrs": {},
        }
        self.stack.append(sid)
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()


REC = Recorder()
MISSING = []  # entry points the program no longer has


def _rebind(orig, wrapper):
    """Point every randspec module attribute bound to `orig` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if name != "randspec" and not name.startswith("randspec."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def _lookup(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            MISSING.append(f"{module}.{attr}")
            return None
    return obj


def _span_wrapper(name, fn, attrs_before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = REC.open(name)
        if attrs_before is not None:
            try:
                span["attrs"].update(attrs_before(*args, **kwargs))
            except (TypeError, ValueError, IndexError):
                span["attrs"]["unparsed"] = 1
        try:
            return fn(*args, **kwargs)
        finally:
            REC.close(span)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _wrap_function(module, attr, name, **kw):
    orig = _lookup(module, attr)
    if orig is None or hasattr(orig, "__perfbench_wrapped__"):
        return
    _rebind(orig, _span_wrapper(name, orig, **kw))


def _wrap_method(module, cls_attr, meth, name, **kw):
    cls = _lookup(module, cls_attr)
    if cls is None:
        return
    orig = cls.__dict__.get(meth)
    if orig is None:
        MISSING.append(f"{module}.{cls_attr}.{meth}")
        return
    if not hasattr(orig, "__perfbench_wrapped__"):
        setattr(cls, meth, _span_wrapper(name, orig, **kw))


# ---------------------------------------------------------------------------
# attribute extractors (cheap: shapes only)


def _sturm_attrs(diag, offdiag, shifts):
    shape = np.shape(diag)
    lanes = int(np.prod(np.broadcast_shapes(shape[:-1], np.shape(shifts))))
    return {"lanes": lanes, "pivots": lanes * int(shape[-1])}


def _uniform_attrs(seed, block, rows, width, stream=0):
    return {"bytes": 8 * int(rows) * int(width)}


# ---------------------------------------------------------------------------
# block dispatch: worker spans come back with the block results


def _traced_block(fn, parent, run_id, block):
    """Run one block inside a span; in a pool worker, return its spans too."""
    in_worker = os.getpid() != REC.main_pid
    if in_worker:
        if REC.pid != os.getpid():
            REC.reset(parent)  # first block in this worker: drop forked state
        REC.stack = [parent]
        REC.run_id = run_id
    span = REC.open("blocks.block")
    try:
        out = fn(block)
    finally:
        REC.close(span)
    if not in_worker:
        return out, []
    spans, REC.spans = REC.spans, []
    return out, spans


def _map_blocks_wrapper(orig):
    @functools.wraps(orig)
    def wrapper(fn, count, workers=1):
        span = REC.open("blocks.map_blocks")
        span["attrs"]["blocks"] = int(max(count, 0))
        pool = workers > 1 and count > 1
        span["attrs"]["lanes"] = (
            min(int(workers), int(count), os.cpu_count() or 1) if pool else 1
        )
        try:
            parts = orig(
                functools.partial(_traced_block, fn, span["id"], REC.run_id),
                count,
                workers,
            )
        finally:
            REC.close(span)
        out = []
        for result, spans in parts:
            out.append(result)
            REC.spans.extend(spans)
        return out

    wrapper.__perfbench_wrapped__ = orig
    return wrapper


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes():
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return 0


class _RssPeak:
    """Highest resident set size above the entry level while the block runs.

    A sampling thread is used instead of tracemalloc, which slows the
    allocation-heavy Sturm loop several-fold.
    """

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.002):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return False

    @property
    def grown(self):
        return max(0, self.peak - self.base)


def _batched_wrapper(orig, trace):
    """Capture extracted eigenvalues; when tracing, also span and RSS growth."""

    @functools.wraps(orig)
    def wrapper(diag2d, offdiag, lo, hi, *args, **kwargs):
        if trace:
            span = REC.open("eigensolve.batched_eigenvalues_in")
            try:
                with _RssPeak() as rss:
                    draws, values = orig(diag2d, offdiag, lo, hi, *args, **kwargs)
            finally:
                REC.close(span)
            span["attrs"]["alloc_bytes"] = rss.grown
            span["attrs"]["eigs"] = int(np.size(values))
        else:
            draws, values = orig(diag2d, offdiag, lo, hi, *args, **kwargs)
        REC.captures.append(
            {
                "rows": int(np.shape(diag2d)[0]),
                "lo": float(lo),
                "hi": float(hi),
                "draws": np.asarray(draws).tolist(),
                "values": np.asarray(values).tolist(),
            }
        )
        return draws, values

    wrapper.__perfbench_wrapped__ = orig
    return wrapper


def _first_probe_wrapper(orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if REC.first_probe is None:
            REC.first_probe = time.perf_counter()
            if REC.stop_at_first_probe:
                raise SetupDone
        return orig(*args, **kwargs)

    wrapper.__perfbench_wrapped__ = orig
    return wrapper


def install(trace: bool):
    """Wrap the program's layer entry points; call after importing randspec."""
    import randspec  # noqa: F401  (loads the library modules)

    probes = importlib.import_module("randspec.probes")
    probe_fns = [
        getattr(probes, n) for n in dir(probes)
        if n.endswith("_probe") and callable(getattr(probes, n))
    ]
    for fn in probe_fns:
        inner = _span_wrapper("probes." + fn.__name__, fn) if trace else fn
        _rebind(fn, _first_probe_wrapper(inner))

    batched = _lookup("randspec.eigensolve", "batched_eigenvalues_in")
    if batched is not None:
        _rebind(batched, _batched_wrapper(batched, trace))
    if not trace:
        return

    mb = _lookup("randspec._blocks", "map_blocks")
    if mb is not None:
        _rebind(mb, _map_blocks_wrapper(mb))
    _wrap_function(
        "randspec._blocks", "uniform_block", "blocks.uniform_block",
        attrs_before=_uniform_attrs,
    )
    _wrap_method("randspec.operators", "UniformLaw", "transform", "operators.transform")
    _wrap_method(
        "randspec.operators", "PiecewiseLinearLaw", "transform", "operators.transform"
    )
    _wrap_function("randspec.operators", "coefficients", "operators.coefficients")
    _wrap_function(
        "randspec.eigensolve", "sturm_counts", "eigensolve.sturm_counts",
        attrs_before=_sturm_attrs,
    )
    for fn in ("nearest_eigenvalue_distance", "eigenvector", "eigenvalues_in"):
        _wrap_function("randspec.eigensolve", fn, "eigensolve." + fn)
    _wrap_function("randspec.ids", "estimate_ids", "ids.estimate_ids")
    _wrap_function("randspec.cli", "load_config", "cli.load_config")
    _wrap_function("randspec.cli", "_write_csv", "cli.report")
    _wrap_method("randspec.probes", "ProbeReport", "to_json", "cli.report")
    _wrap_function("randspec.pruefer", "split_box_search", "pruefer.split_box_search")
    _wrap_function("randspec.qgraph", "graph_eigenvalues", "qgraph.graph_eigenvalues")
    _wrap_function("randspec.transfer", "lyapunov", "transfer.lyapunov")
