"""Spans around the public functions of momentsieve, kept in memory.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index of
the enclosing span or -1, ``op`` the index of the operation it belongs to.
Each wrapped function is replaced in the module where its caller looks it
up (``moments.certify_sign``, ``riemann.bisect_sign_change``, ...), so a
function imported into several modules gets one wrapper and one name: its
defining module plus its own name.  Only the benchmark installs wrappers;
the program itself is unchanged.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly (one thread), so self times partition each root span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: wrapped names, per module in which callers look them up
BOUNDARIES = {
    "cli": ("main",),
    "riemann": ("rh_moment_pipeline", "bracket_zeros", "xi_coefficients",
                "xi_eval", "phi", "bisect_sign_change", "normalize",
                "moments_by_recursion", "moments_by_determinant",
                "build_grid"),
    "dirichlet": ("grh_moment_pipeline", "char_coeffs", "first_zero_height",
                  "z_char_eval", "phi_char", "bisect_sign_change",
                  "moments_by_recursion", "moments_by_determinant",
                  "build_grid"),
    "moments": ("moments_by_recursion", "build_grid", "grid_report",
                "certify_sign"),
    "oracle": ("load_zeros", "admissibility", "moments_from_zeros",
               "product_to_series"),
}

Span = Tuple[str, int, int, int, int]


class Tracer:
    """Records spans of wrapped calls; ``op`` tags the current operation."""

    def __init__(self):
        self.spans: List[list] = []
        self.notes: Dict[int, tuple] = {}
        self.op = -1
        self._stack: List[int] = []
        self._wrappers: Dict[int, Callable] = {}

    def wrap(self, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """A recording wrapper for ``fn``, shared by every module using it."""
        found = self._wrappers.get(id(fn))
        if found is not None:
            return found
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self, modules: Dict[str, object]) -> None:
        """Replace every name of :data:`BOUNDARIES` in ``modules``."""
        for module_name, names in BOUNDARIES.items():
            module = modules[module_name]
            for attr in names:
                fn = getattr(module, attr)
                note = _certify_note if attr == "certify_sign" else None
                setattr(module, attr, self.wrap(fn, note))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "notes": {str(k): v for k, v in self.notes.items()}},
                      fh)


def _certify_note(args, kwargs, result):
    policy = kwargs.get("policy", args[1] if len(args) > 1 else None)
    bits = policy.bits if policy is not None else 256
    return (result.sign, result.bits_used, bits)


def load(path) -> Tuple[List[Span], Dict[int, tuple]]:
    with open(path) as fh:
        data = json.load(fh)
    return ([tuple(s) for s in data["spans"]],
            {int(k): tuple(v) for k, v in data["notes"].items()})


def self_times(spans: List[Span]) -> List[int]:
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per name: ``calls``, inclusive seconds ``s`` and ``self_s``.

    No wrapped function calls itself, directly or through another wrapped
    one, so inclusive times of one name never overlap.
    """
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _, _), self_ns in zip(spans, own):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += self_ns / 1e9
    return dict(out)


def layer_self(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer (the module part of each span name)."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        out[name.split(".", 1)[0]] += t / 1e9
    return dict(out)


def certify_counts(notes: Dict[int, tuple]) -> Dict[str, float]:
    """Counters of :func:`numkernel.certify_sign` from its span notes.

    ``escalated`` cells used more than the first precision pair
    (bits_used > 2 * bits); ``first_pair_frac`` is the share settled at that
    first pair; ``uncertain`` cells ended ``zero-uncertain``.
    """
    cells = escalated = first = uncertain = 0
    for sign, bits_used, bits in notes.values():
        cells += 1
        if sign == "zero-uncertain":
            uncertain += 1
        elif bits_used <= 2 * bits:
            first += 1
        if bits_used > 2 * bits:
            escalated += 1
    return {"escalated": escalated, "uncertain": uncertain,
            "first_pair_frac": first / cells if cells else 0.0}
