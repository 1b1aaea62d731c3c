"""Span tracer that wraps hsa_lab's public functions from outside the package.

Every call to a wrapped function is a span with a name, a start, an end and
a parent (the innermost wrapped call that was open when it started).  Spans
are folded into per-name aggregates as they close, so memory stays constant
however many calls a pass makes:

* ``calls``, ``total`` (inclusive seconds) and ``self`` (seconds not covered
  by wrapped children) per span name;
* ``edges[(parent, child)]``: how often ``child`` ran directly under
  ``parent`` (``parent`` is None at the top level);
* ``tallies``: work counters read from return values or exceptions
  (enumerated oracle states, oracle skips, simulated round columns).

Installing the tracer re-binds each wrapped function in every ``hsa_lab``
module namespace that holds the same object, because modules import by name
(``verify`` holds ``run_round``, ``cli`` holds ``build_scheme_b``).  The
FieldMatrix ``rank``, ``inverse`` and ``__matmul__`` methods are wrapped on
the class.  Uninstalling restores every original binding.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gf", "topology", "bounds", "schemes", "protocol", "verify", "cli")
METHODS = (("rank", "gf.rank"), ("inverse", "gf.inverse"), ("__matmul__", "gf.matmul"))


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.tallies: Counter = Counter()
        self._stack: list[list] = []        # open spans: [name, seconds covered by children]
        self._restore: list[tuple] = []     # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, on_return=None, on_raise=None):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(self.tallies, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(self.tallies, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self):
        from hsa_lab.errors import TooLargeToEnumerate
        from hsa_lab.gf import FieldMatrix

        def oracle_states(tallies, result):
            tallies["verify.mi_oracle.states"] += result.states

        def oracle_skip(tallies, exc):
            if isinstance(exc, TooLargeToEnumerate):
                tallies["verify.mi_oracle.skipped"] += 1

        def round_columns(tallies, result):
            tallies["protocol.run_round.columns"] += result.decoded.cols

        hooks = {
            "verify.mi_oracle": (oracle_states, oracle_skip),
            "protocol.run_round": (round_columns, None),
        }
        wrappers = {}                        # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"hsa_lab.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, *hooks.get(name, (None, None)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hsa_lab" and not mod_name.startswith("hsa_lab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._rebind(mod, attr, wrappers[id(obj)])
        for attr, name in METHODS:
            self._rebind(FieldMatrix, attr, self._wrap(name, FieldMatrix.__dict__[attr]))
        return self

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregates -------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))

    def layer_self(self, layer: str) -> float:
        return sum((s for name, s in self.self_s.items() if name.startswith(layer + ".")), 0.0)

    def under(self, parent: str, child: str) -> int:
        """Calls of `child` made directly inside a `parent` span."""
        return self.edges[(parent, child)]
