"""In-memory span recorder that wraps public functions at module attributes.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``op`` the benchmark operation the
span belongs to.  Spans are only recorded on the thread that created the
tracer; calls from other threads (the sweep thread pool) pass straight
through.  Wrappers are installed for a traced section and removed after it,
so untraced runs execute the program's own functions.
"""

from __future__ import annotations

import contextlib
import threading
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _n_points(args, kwargs, result, exc):
    return {"n": args[0].grid.n_points}


def _convolve_attrs(args, kwargs, result, exc):
    method = args[2] if len(args) > 2 else kwargs.get("method", "fft")
    return {"n": len(args[0]), "j": args[1].half_width, "method": method}


def _discretize_attrs(args, kwargs, result, exc):
    return {"dx": args[1], "j": None if result is None else result.half_width}


def _search_attrs(args, kwargs, result, exc):
    return None if result is None else {"evals": len(result.curve)}


def _solve_attrs(args, kwargs, result, exc):
    if result is not None:
        return {"steps": result.steps, "n": result.grid.n_points, "speed": result.speed}
    history = getattr(exc, "history", None)
    steps = len(history.sup_diffs) if history is not None else 0
    return {"steps": steps, "failed": type(exc).__name__}


def _subcommand(args, kwargs, result, exc):
    return {"sub": args[0]}


# (module, attribute, attribute hook).  The module is the one whose global
# name the caller looks up at call time, so a function imported by name into
# another module is wrapped there too (waves.apply_Q next to evolution.apply_Q).
BOUNDARIES = (
    ("cli", "run", _subcommand),
    ("cli", "load_config", None),
    ("waves", "find_bistable_wave", _solve_attrs),
    ("waves", "validate_profile", None),
    ("waves", "wave_residual", None),
    ("waves", "validate_params", None),
    ("waves", "validate_hypotheses", None),
    ("waves", "counter_propagation", None),
    ("waves", "discretize", _discretize_attrs),
    ("waves", "apply_Q", _n_points),
    ("waves", "front_position", None),
    ("evolution", "apply_Q", _n_points),
    ("evolution", "convolve_extended", _convolve_attrs),
    ("speeds", "counter_propagation", None),
    ("speeds", "scalar_speed", _search_attrs),
    ("speeds", "system_speed_bound", _search_attrs),
    ("kernels", "discretize", _discretize_attrs),
    ("kernels", "validate_hypotheses", None),
    ("model", "equilibria", None),
    ("model", "classify_stability", None),
    ("model", "strong_stability_vectors", None),
)


class Tracer:
    """Collects spans for one thread; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = 0
        self._thread = threading.get_ident()
        self._installed = []

    @property
    def current(self) -> int:
        """Index of the innermost open span (-1 when none is open)."""
        return self._stack[-1] if self._stack else -1

    def new_op(self) -> int:
        self._op += 1
        return self._op

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, record):
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a benchmark-level span; the caller may add to its attrs."""
        record = self._open(name)
        record[ATTRS] = dict(attrs)
        try:
            yield record[ATTRS]
        finally:
            self._close(record)

    def adopt(self, child_spans, parent_index):
        """Append spans recorded in another process under ``parent_index``.

        perf_counter is the system-wide monotonic clock on Linux, so child
        times share this process's time base.
        """
        base = len(self.spans)
        for name, start, end, parent, _, attrs in child_spans:
            parent = parent_index if parent < 0 else parent + base
            self.spans.append([name, start, end, parent, self._op, attrs])

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                tracer._close(record)
                if hook is not None:
                    record[ATTRS] = hook(args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict):
        """Wrap every boundary in BOUNDARIES; ``modules`` maps short names."""
        for mod_name, attr, hook in BOUNDARIES:
            module = modules[mod_name]
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    @contextlib.contextmanager
    def installed(self, modules: dict):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()


def rickerwaves_modules() -> dict:
    from rickerwaves import cli, evolution, kernels, model, speeds, waves

    return {
        "cli": cli, "evolution": evolution, "kernels": kernels,
        "model": model, "speeds": speeds, "waves": waves,
    }


def self_times(spans) -> list:
    """Span duration minus the time covered by its direct children.

    Spans on one thread nest without overlap, so the children's covered
    time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child[record[PARENT]] += record[END] - record[START]
    return [record[END] - record[START] - child[i] for i, record in enumerate(spans)]


def children_index(spans) -> list:
    kids = [[] for _ in spans]
    for i, record in enumerate(spans):
        if record[PARENT] >= 0:
            kids[record[PARENT]].append(i)
    return kids


def descendants(kids, root) -> list:
    out = []
    todo = list(kids[root])
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out
