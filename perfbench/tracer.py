"""Span tracer that wraps hellcorr's public functions from outside the package.

Only the traced run imports this module's ``install``; the untraced run
calls ``wrapped_names`` to prove that nothing is installed. A wrapper is
put into every hellcorr module namespace that holds the function, because
``from .x import f`` copies the binding (``estimate`` is bound separately in
``estimator``, ``inference``, ``cli`` and the package itself).

Spans are kept in memory in a flat array and written out by ``write_spans``
at the end. A span's self time is its duration minus the time its child
spans cover. Children on the span's own thread run one after another, so
their durations add up; children on worker threads (the ``threads=2`` null
table) overlap, so their union is used, and every span below them is scaled
by union / sum of their durations. Self times therefore add up to the wall
time the traced calls cover, also when two threads run at once.
"""

import functools
import gzip
import importlib
import inspect
import threading
from array import array
from time import perf_counter

LAYERS = ("cli", "inference", "estimator", "cv", "ranks_nn", "transform", "basis", "rng")
# modules that bind layer functions but are not layers themselves
_BINDERS = ("hellcorr", "hellcorr.generators", "hellcorr.datasets")
_MARK = "_perfbench_wrapped"


def _modules():
    return [importlib.import_module(f"hellcorr.{m}") for m in LAYERS] + [
        importlib.import_module(m) for m in _BINDERS
    ]


def public_functions():
    """(qualified name, function) for each public function a layer defines."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"hellcorr.{layer}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{name}", obj))
    return out


def wrapped_names():
    """Qualified names of every tracer wrapper currently bound in hellcorr."""
    return sorted(
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name, obj in vars(mod).items()
        if getattr(obj, _MARK, False)
    )


# the one count taken from arguments inside a wrapper: basis rows evaluated
_ROWS = "basis.design_matrix"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names = []
        self.extra = {}
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = None
        self._lock = threading.Lock()
        self._threads = 0
        # six numbers per finished span: function, thread, start, end, self, group
        self._spans = array("d")
        self._groups = []  # per group: intervals of its worker-thread root spans
        self._restore = []

    def _new_stack(self):
        """Create this thread's span stack and number the thread."""
        with self._lock:
            self._local.tid = self._threads
            self._threads += 1
        self._local.stack = []
        return self._local.stack

    def _group_of(self, parent):
        """Group id for the worker-thread children of an open main-thread span."""
        with self._lock:
            if parent[2] is None:
                parent[2] = len(self._groups)
                self._groups.append([])
            return parent[2]

    def _wrap(self, fn, qname):
        fid = len(self.names)
        self.names.append(qname)
        count_rows = qname == _ROWS
        if count_rows:
            counts = self.extra[qname] = {"rows": 0}
        local = self._local
        lock = self._lock
        spans = self._spans
        groups = self._groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._new_stack()
            if stack:
                group = stack[-1][1]
            elif self._main_stack and threading.get_ident() != self._main:
                group = self._group_of(self._main_stack[-1])
            else:
                group = -1
            if count_rows:
                with lock:  # the threads=2 null table calls this from two threads
                    counts["rows"] += getattr(args[0], "size", 1)
            # open span: [child time, group, group of its worker-thread children]
            rec = [0.0, group, None]
            stack.append(rec)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                elif group >= 0:
                    groups[group].append((t0, t1))
                child = rec[0]
                if rec[2] is not None:
                    child += _union(groups[rec[2]])
                spans.extend((fid, local.tid, t0, t1, t1 - t0 - child, group))

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        """Bind a wrapper in place of every public layer function."""
        self._main_stack = self._new_stack()
        mods = _modules()
        for qname, fn in public_functions():
            w = self._wrap(fn, qname)
            for mod in mods:
                for name, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, name, w)
                        self._restore.append((mod, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._restore):
            setattr(mod, name, fn)
        self._restore.clear()

    def _rows(self):
        sp = self._spans
        for i in range(0, len(sp), 6):
            yield int(sp[i]), int(sp[i + 1]), sp[i + 2], sp[i + 3], sp[i + 4], int(sp[i + 5])

    @property
    def span_count(self):
        return len(self._spans) // 6

    def summary(self):
        """Per function: calls and self seconds, plus extra argument counts."""
        scale = []
        for iv in self._groups:
            total = sum(t1 - t0 for t0, t1 in iv)
            scale.append(_union(iv) / total if total > 0 else 1.0)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for fid, _, _, _, s, g in self._rows():
            calls[fid] += 1
            self_s[fid] += s * scale[g] if g >= 0 else s
        return {
            qname: {"calls": calls[fid], "self_s": self_s[fid], **self.extra.get(qname, {})}
            for fid, qname in enumerate(self.names)
        }

    def write_spans(self, path, origin):
        """Write every span as a tab-separated line to a gzip file."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("function\tthread\tstart_s\tend_s\tself_s\tgroup\n")
            for fid, tid, t0, t1, s, g in self._rows():
                fh.write(f"{names[fid]}\t{tid}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{s:.9f}\t{g}\n")


def _union(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
