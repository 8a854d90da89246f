"""Outside-in tracing of the duadic package: spans from wrappers installed by
the benchmark, with no change to the program.

`install` rebinds every module attribute of `duadic.*` that is one of the
package's own functions, and patches the class methods in `METHODS`, so that
each call records a span: name, start, end, parent span, request id and a
work count computed from the call's arguments or result size.  Spans stay in
flat arrays in memory and are written out once, by `Tracer.save`.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

# class methods patched in place, as (module, class, method)
METHODS = (
    ("gf", "FiniteField", "vadd"),
    ("gf", "FiniteField", "vneg"),
    ("gf", "FiniteField", "vsub"),
    ("gf", "FiniteField", "vmul"),
    ("gf", "FiniteField", "vinv"),
    ("gf", "FiniteField", "vfrobenius"),
    ("gf", "FiniteField", "vsum"),
    ("groups", "Group", "__init__"),
    ("codes", "LinearCode", "__init__"),
    ("duadic", "DuadicPair", "__init__"),
)


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind(*args, **kwargs).arguments[name]


def _work_functions() -> dict:
    """Span name -> f(sig, args, kwargs, result) giving the call's work count."""

    def coset_words(sig, args, kwargs, result):
        field, gen = _arg(sig, args, kwargs, "field"), _arg(sig, args, kwargs, "gen")
        rows = gen.shape[0] if gen.size else 0
        return field.q**rows

    def distribution_words(sig, args, kwargs, result):
        code = _arg(sig, args, kwargs, "code")
        return code.field.q**code.k

    def rref_entries(sig, args, kwargs, result):
        return int(np.size(_arg(sig, args, kwargs, "mat")))

    def result_size(sig, args, kwargs, result):
        return int(np.size(result))

    work = {
        "codes.coset_min_weight": coset_words,
        "codes.weight_distribution": distribution_words,
        "_linalg.rref": rref_entries,
        "algebra.split_primitive_central_idempotents": lambda s, a, k, r: len(r),
        "quantum.css_distance": lambda s, a, k, r: 0 if r.exact else 1,
    }
    for module, cls, method in METHODS:
        if module == "gf":
            work[f"{module}.{cls}.{method}"] = result_size
    return work


class Tracer:
    """Flat in-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.work = array.array("d")
        self.request_id = -1
        self._stack = [-1]
        self._restore: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.work.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, work=None):
        name_id = self.intern(name)
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.work[idx] = work(sig, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the package's functions and the listed methods."""
        import duadic

        modules = [duadic] + [
            importlib.import_module(f"duadic.{info.name}")
            for info in pkgutil.iter_modules(duadic.__path__)
        ]
        work = _work_functions()
        wrappers: dict = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith("duadic")
                    and not inspect.isgeneratorfunction(value)
                ):
                    if value not in wrappers:
                        name = _short(value.__module__) + "." + value.__qualname__
                        wrappers[value] = self.wrap(value, name, work.get(name))
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"duadic.{module}"), cls_name)
            original = vars(cls)[method]
            name = f"{module}.{cls_name}.{method}"
            self._restore.append((cls, method, original))
            setattr(cls, method, self.wrap(original, name, work.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "request": np.frombuffer(self.request, dtype=np.int32).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _short(module: str) -> str:
    return module.split(".", 1)[1] if "." in module else module


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and overlapping children are
    counted once (the union of their intervals), so the result is right for
    any set of spans, not only strictly nested ones.  Times are integers.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return duration.astype(np.float64)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.minimum(end[kids], end[par])
    # running maximum of clipped ends within each parent's children: shift
    # each parent group by its own offset so one global maximum scan works
    base = int(start.min())
    lo, hi = lo - base, hi - base
    span = int(max(hi.max(), lo.max())) + 1
    group = np.concatenate([[0], np.cumsum(par[1:] != par[:-1])])
    keyed = group * span + hi
    prev = np.concatenate([[-1], np.maximum.accumulate(keyed)[:-1]]) - group * span
    cover = np.maximum(0, hi - np.maximum(lo, prev))
    covered = np.bincount(par, weights=cover, minlength=len(start))
    return duration - covered


def outermost(name: np.ndarray, parent: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mask of spans whose name is in `members` and that have no ancestor
    whose name is too, so that inclusive times are not counted twice."""
    inside = np.isin(name, members)
    has_parent = parent >= 0
    # ancestor_in[i]: some proper ancestor of i is a member; found by pointer
    # jumping along parent links
    ancestor_in = np.zeros(len(name), dtype=bool)
    ancestor_in[has_parent] = inside[parent[has_parent]]
    jump = parent.copy()
    while True:
        live = jump >= 0
        if not live.any():
            break
        ancestor_in[live] |= ancestor_in[jump[live]]
        nxt = np.full_like(jump, -1)
        nxt[live] = jump[jump[live]]
        jump = nxt
    return inside & ~ancestor_in


class SpanStats:
    """Calls, inclusive time, self time and work for sets of span names."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.request = a["name"], a["parent"], a["request"]
        self.duration = (a["end"] - a["start"]) * 1e-9
        self.self_s = self_times(a["start"], a["end"], a["parent"]) * 1e-9
        self.work = a["work"]

    def _ids(self, names) -> np.ndarray:
        wanted = set(names)
        return np.array([i for i, n in enumerate(self.names) if n in wanted], dtype=np.int64)

    def _ids_prefix(self, prefix: str) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if n.startswith(prefix)], dtype=np.int64)

    def mask(self, names=(), prefix: str | None = None) -> np.ndarray:
        ids = self._ids_prefix(prefix) if prefix is not None else self._ids(names)
        return np.isin(self.name, ids)

    def calls(self, *names: str) -> int:
        return int(self.mask(names).sum())

    def total_s(self, *names: str) -> float:
        ids = self._ids(names)
        return float(self.duration[outermost(self.name, self.parent, ids)].sum())

    def self_time(self, *names: str, prefix: str | None = None) -> float:
        return float(self.self_s[self.mask(names, prefix)].sum())

    def work_sum(self, *names: str) -> float:
        return float(self.work[self.mask(names)].sum())

    def work_by_request(self, *names: str) -> dict[int, float]:
        m = self.mask(names)
        out: dict[int, float] = {}
        for rid, w in zip(self.request[m].tolist(), self.work[m].tolist()):
            out[rid] = out.get(rid, 0.0) + w
        return out
