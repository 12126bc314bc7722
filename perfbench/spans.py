"""In-memory span recorder that wraps piezofrac's public callables.

Every wrapped call records one span: name, start, end and the span that
was open when it began (its parent).  Spans stay in memory while the
workload runs and are written once, by `Tracer.dump`, when it ends.
Only the benchmark wraps anything; the package itself is not edited.
"""

import functools
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Span list plus named counters for one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.spans = []          # [name id, start, end, parent index]
        self._stack = []
        self.counters = Counter()

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._nid(name), time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name, on_return=None):
        """Callable that records a span around `fn`.

        A call that raises bumps the `<name>.raised` counter; a cached
        function (one with `cache_info`) also bumps `<name>.cache_hits`
        when the call was answered from its cache.  `on_return(args,
        kwargs, result)` sees each successful call.
        """
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.close(idx)
            if cache_info and cache_info().hits > hits:
                self.counters[name + ".cache_hits"] += 1
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def instrument(self, modules, on_return=None):
        """Wrap every public function and public method of `modules`.

        Names are `<module>.<function>` and `<module>.<Class>.<method>`;
        `on_return` maps some of those names to result hooks.
        """
        on_return = on_return or {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            setattr(obj, meth,
                                    self.wrap(fn, name, on_return.get(name)))
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{short}.{attr}"
                    setattr(mod, attr,
                            self.wrap(obj, name, on_return.get(name)))

    def summary(self, wall_s):
        """Per-name calls, inclusive and self seconds, plus top-level cover.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice; self time is a span's
        duration minus its direct children's.
        """
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls = Counter()
        incl = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        top = 0.0
        for i, (nid, _, _, parent) in enumerate(self.spans):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            durations[nid].append(dur[i])
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:
                incl[nid] += dur[i]
            if parent < 0:
                top += dur[i]
        names = self.names
        return {
            "calls": {names[k]: v for k, v in calls.items()},
            "incl_s": {names[k]: v for k, v in incl.items()},
            "self_s": {names[k]: v for k, v in self_s.items()},
            "p50_s": {names[k]: statistics.median(v)
                      for k, v in durations.items()},
            "counters": dict(self.counters),
            "top_level_s": top,
            "coverage": top / wall_s,
        }

    def dump(self, path):
        """Write every span as [name, start, end, parent, run id]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": [[self.names[s[0]], s[1], s[2], s[3],
                                  self.run_id] for s in self.spans]}, fh)
