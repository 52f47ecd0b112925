"""Spans around calls into tropeig's public functions, recorded from outside.

A Tracer wraps each named function and patches the wrapper into every place
the original is bound: module attributes of every loaded ``tropeig`` module
(``from .charpoly import charpoly_direct`` makes a separate binding in the
importing module) and values of module-level dicts such as the example
registry.  Patching only the defining module would miss those calls.

Spans are kept in memory as [name, start, end, parent, raised] lists and
written out once, by the caller, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[object], None]] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self, targets: Dict[str, Tuple[Callable, Optional[Callable]]]) -> int:
        """Patch a wrapper for each span name -> (function, on_result) into
        every binding site in the loaded tropeig modules.  Returns the number
        of sites patched."""
        wrappers = {id(fn): self.wrap(name, fn, hook)
                    for name, (fn, hook) in targets.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tropeig" or name.startswith("tropeig."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patches.append((mod, attr, value, False))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patches.append((value, key, item, True))
                            value[key] = wrappers[id(item)]
        return len(self._patches)

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[END] - s[START] - covered)
    return out


def ancestor(spans: List[list], i: int, match: Callable[[str], bool]) -> Optional[int]:
    """Index of the nearest enclosing span whose name satisfies `match`."""
    p = spans[i][PARENT]
    while p is not None and not match(spans[p][NAME]):
        p = spans[p][PARENT]
    return p
