"""Span tracer for the traced benchmark run.

Wrappers replace module attributes from outside the program, so calls made
inside a module (``run`` calling ``step``) are caught as well.  Each call
records one span (group, start, end, parent) in flat arrays kept in memory;
self time is a span's duration minus the durations of its direct children.
Nothing is installed outside :meth:`Tracer.installed`, so an untraced round
runs the program's own functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from array import array
from time import perf_counter
from typing import Callable, Iterable, Iterator, MutableMapping, Optional

import numpy as np

# (args, result) -> (counter name, amount) for functions whose result or
# arguments carry a work count
Counter = Callable[[tuple, object], tuple[str, int]]


class Tracer:
    def __init__(self) -> None:
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.group_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def group(self, name: str) -> int:
        if name not in self._group_ids:
            self._group_ids[name] = len(self.groups)
            self.groups.append(name)
        return self._group_ids[name]

    def wrap(self, fn: Callable, group: str, counter: Optional[Counter] = None) -> Callable:
        gid = self.group(group)
        gids, parents, starts, ends, stack = (self.group_id, self.parent, self.start,
                                              self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            gids.append(gid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                name, amount = counter(args, out)
                self.counters[name] = self.counters.get(name, 0) + amount
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, functions: Iterable[tuple[object, str, str, Optional[Counter]]],
                  coefficient_sets: MutableMapping) -> Iterator[None]:
        """Wrap module functions and the D, h, g callables of coefficient sets.

        ``functions`` holds (module, attribute, group, counter).  A D, h or g
        compiled from the expression grammar (it carries ``.expression``)
        goes to the group ``expressions.eval``, any other to
        ``coefficients.eval``.  Everything is restored on exit.
        """
        saved_attrs = []
        saved_sets = dict(coefficient_sets)
        try:
            for module, attr, group, counter in functions:
                original = getattr(module, attr)
                saved_attrs.append((module, attr, original))
                setattr(module, attr, self.wrap(original, group, counter))
            for key, c in saved_sets.items():
                coefficient_sets[key] = dataclasses.replace(c, **{
                    name: self.wrap(getattr(c, name), "expressions.eval"
                                    if hasattr(getattr(c, name), "expression")
                                    else "coefficients.eval")
                    for name in ("D", "h", "g")})
            yield
        finally:
            for module, attr, original in reversed(saved_attrs):
                setattr(module, attr, original)
            coefficient_sets.update(saved_sets)

    def totals(self) -> dict[str, tuple[int, float]]:
        """group -> (calls, self seconds) over every recorded span.

        A call counts once for its group: a span whose parent belongs to the
        same group (``write_snapshot`` calling ``write_columns``) adds self
        time but no call.
        """
        gid = np.array(self.group_id, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        duration = np.array(self.end) - np.array(self.start)
        child = parent >= 0
        covered = np.zeros(gid.size)
        np.add.at(covered, parent[child], duration[child])
        self_time = duration - covered
        outermost = ~child
        outermost[child] = gid[parent[child]] != gid[child]
        n = len(self.groups)
        calls = np.bincount(gid[outermost], minlength=n)
        self_s = np.bincount(gid, weights=self_time, minlength=n)
        return {g: (int(calls[i]), float(self_s[i])) for i, g in enumerate(self.groups)}

    def save(self, path: str) -> None:
        """Write every span to ``path`` (numpy .npz)."""
        np.savez(path, groups=np.array(self.groups), group_id=np.array(self.group_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))
