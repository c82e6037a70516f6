"""In-memory span recorder that wraps ahmass functions where callers look them up.

A target is named ``<module>.<qualname>`` relative to the ``ahmass``
package, e.g. ``embed_h3.embed_surface`` or
``killing_spinor.KillingNormField.value``.  Installing the tracer replaces
every ahmass module attribute (and, for methods, the class attribute) that
holds the original function with a wrapper recording one span per call:
target, parent span, start and end.  Names imported from outside the
package are traced at the importing module, e.g. ``embed_h3.solve_ivp``.
A target whose name no longer exists is kept with zero calls.

Spans stay in memory for one case; ``end_case`` folds them into per-target
totals (calls, self time, failures) and drops them.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def self_times(spans):
    """Self time of each span in ``spans``, a list of
    ``(target, parent_index, start, end)`` with ``parent_index`` -1 for a
    root.  Returns a list aligned with ``spans``."""
    children = defaultdict(list)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _resolve(package, target):
    """(owner, attribute, original) for a dotted target, or None when the
    name no longer exists."""
    module_name, _, qual = target.partition(".")
    owner = sys.modules.get("%s.%s" % (package, module_name))
    if owner is None:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans for ``targets`` while installed.

    ``hooks`` maps a target to ``hook(tracer, args, kwargs, result)``,
    called after a successful call to record counts such as ``nfev``
    into ``tracer.counts``.
    """

    def __init__(self, targets, hooks=None, package="ahmass"):
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        self.package = package
        self.spans = []
        self._stack = []
        self._patched = []
        self.case = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.counts = defaultdict(float)
        self.missing = set()

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for index, target in enumerate(self.targets):
            found = _resolve(self.package, target)
            if found is None:
                self.missing.add(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(index, target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def _wrap(self, index, target, fn):
        spans, stack = self.spans, self._stack
        hook = self.hooks.get(target)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            span = [index, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[target] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- per-case aggregation -----------------------------------------------

    def begin_case(self, case):
        if self.spans or self._stack:
            raise RuntimeError("previous case still holds spans")
        self.case = case

    def end_case(self):
        """Fold this case's spans into the totals; returns the case's
        per-target ``{target: [calls, self_s]}``."""
        per_case = {}
        for (index, _, _, _), own in zip(self.spans, self_times(self.spans)):
            target = self.targets[index]
            entry = per_case.setdefault(target, [0, 0.0])
            entry[0] += 1
            entry[1] += own
        for target, (calls, own) in per_case.items():
            self.calls[target] += calls
            self.self_s[target] += own
        self.spans.clear()
        self.case = None
        return per_case
