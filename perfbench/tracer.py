"""Per-layer tracing of nilorbits from outside the library.

Each traced function is rebound, in every loaded ``nilorbits`` module
namespace that holds it, to a wrapper that records a span (name, start,
end, parent) and counts calls and outcomes.  Rebinding every namespace
matters: the modules bind many of these names by ``from .partitions import
...``, so wrapping ``partitions.dual`` alone would miss the calls made from
``springer`` or ``faithful``.

Spans are kept in memory in flat arrays and written out when the pass ends.
A span's self time is its duration minus the durations of its children.

Run this file to self-test the rebinding: ``python3 perfbench/tracer.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

LAYERS = ("partitions", "symbols", "springer", "duality", "faithful",
          "wavefront", "cli")

# The functions behind the per-layer metrics in BENCHMARK.json.
TRACED = {
    "partitions": ("dual", "collapse", "dominance_le", "reduction"),
    "symbols": ("similar_symbols", "enumerate_class", "refinement", "flips"),
    "springer": ("family_members", "dual_fiber", "restriction_multiplicity",
                 "lr_coefficient", "springer_support", "j_induce"),
    "duality": ("d_A_triv", "sbar", "d_S_marked", "le_A", "d_S"),
    "faithful": ("verify_faithful", "faithful_pair"),
    "wavefront": ("wf_of_wrep",),
    "cli": ("build_parser", "run"),
}

# Outcome tallies: what each call's result adds to the function's tally.
_TALLY = {
    "springer.family_members": len,
    "springer.restriction_multiplicity": lambda got: got > 0,
    "springer.lr_coefficient": lambda got: got == 0,
}


class Tracer:
    """Wraps the traced functions while installed; ``metrics`` reads the
    per-layer numbers afterwards."""

    def __init__(self, traced=None):
        self.traced = TRACED if traced is None else traced
        self.names = [f"{layer}.{fn}" for layer, fns in self.traced.items()
                      for fn in fns]
        n = len(self.names)
        self.calls = [0] * n
        self.returned = [0] * n
        self.tally = [0] * n
        self.self_s = [0.0] * n
        self.constructed = 0
        self.families = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._restore = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "nilorbits" or name.startswith("nilorbits.")]
        for idx, qualified in enumerate(self.names):
            layer, fn = qualified.split(".")
            original = getattr(sys.modules[f"nilorbits.{layer}"], fn)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        symbol_cls = sys.modules["nilorbits.symbols"].Symbol
        post_init = symbol_cls.__post_init__

        def counted(obj):
            self.constructed += 1
            return post_init(obj)

        symbol_cls.__post_init__ = counted
        self._restore.append((symbol_cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, idx, fn):
        perf = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, returned, tally, self_s = (self.calls, self.returned,
                                          self.tally, self.self_s)
        observe = _TALLY.get(self.names[idx])
        keep_family = self.names[idx] == "faithful.verify_faithful"
        families = self.families

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            starts.append(0.0)
            ends.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
                self_s[idx] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            returned[idx] += 1
            if observe is not None:
                tally[idx] += observe(result)
            if keep_family:
                families.append(result.pair.families)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        """One JSON header line (names, span count), then the raw arrays
        name (uint16), parent (int32), start and end (float64 seconds)."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:H", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)

    def _count(self, qualified: str) -> int:
        return self.calls[self.names.index(qualified)]

    def _self(self, qualified: str) -> float:
        return self.self_s[self.names.index(qualified)]

    def _probes_in_verify(self) -> int:
        """Restriction calls with a ``verify_faithful`` span above them."""
        verify = self.names.index("faithful.verify_faithful")
        probe = self.names.index("springer.restriction_multiplicity")
        under = bytearray(len(self.span_name))
        count = 0
        for i, (name, parent) in enumerate(zip(self.span_name,
                                               self.span_parent)):
            under[i] = name == verify or (parent >= 0 and under[parent])
            if name == probe and parent >= 0 and under[parent]:
                count += 1
        return count

    def metrics(self, wall_s: float, pool_entries: int) -> dict:
        """Per-layer metrics of one traced pass; ``pool_entries`` is the sum
        over verified orbits of the product of their two family sizes."""
        out = {}
        for layer in LAYERS:
            idxs = [i for i, q in enumerate(self.names)
                    if q.startswith(layer + ".")]
            out[f"{layer}.self_s"] = sum(self.self_s[i] for i in idxs)
            out[f"{layer}.calls"] = sum(self.calls[i] for i in idxs)
        for qualified in self.names:
            out[f"{qualified}.calls"] = self._count(qualified)
            out[f"{qualified}.self_s"] = self._self(qualified)

        def ratio(num, den):
            return num / den if den else 0.0

        def tally(qualified):
            return self.tally[self.names.index(qualified)]

        flips = self.names.index("symbols.flips")
        out["symbols.Symbol.constructed"] = self.constructed
        out["symbols.flips.ok_ratio"] = ratio(self.returned[flips],
                                              self.calls[flips])
        out["springer.family_members.members"] = tally(
            "springer.family_members")
        verified = self._count("faithful.verify_faithful")
        out["springer.dual_fiber.per_orbit"] = ratio(
            self._count("springer.dual_fiber"), verified)
        out["springer.restriction_multiplicity.hit_ratio"] = ratio(
            tally("springer.restriction_multiplicity"),
            self._count("springer.restriction_multiplicity"))
        out["springer.lr_coefficient.zero_ratio"] = ratio(
            tally("springer.lr_coefficient"),
            self._count("springer.lr_coefficient"))
        out["duality.d_S_reuse_ratio"] = ratio(
            self._count("duality.d_S_marked") - self._count("duality.d_S"),
            self._count("duality.d_S_marked"))
        out["faithful.pool_entries"] = pool_entries
        out["faithful.pool_probe_ratio"] = ratio(self._probes_in_verify(),
                                                 pool_entries)
        out["trace.coverage"] = ratio(
            sum(out[f"{layer}.self_s"] for layer in LAYERS), wall_s)
        return out


def self_test() -> list[str]:
    """A wrapped function is counted when called through a ``from``-import
    binding in another module, and uninstalling restores every binding."""
    from nilorbits import faithful as fa
    from nilorbits import partitions as pt
    original = pt.is_type_partition
    tracer = Tracer({"partitions": ("is_type_partition",)})
    tracer.install()
    try:
        wrapped = fa.is_type_partition is not original
        fa.faithful_pair((3, 3, 1), "C")
        from_import_calls = tracer.calls[0]
        pt.is_type_partition((2, 2), "C")
        module_calls = tracer.calls[0] - from_import_calls
    finally:
        tracer.uninstall()
    problems = []
    if not wrapped:
        problems.append("faithful.is_type_partition was not rebound")
    if from_import_calls < 1:
        problems.append("a call from faithful through its from-import "
                        "binding was not counted")
    if module_calls != 1:
        problems.append(f"one call through partitions counted "
                        f"{module_calls} times")
    if fa.is_type_partition is not original or \
            pt.is_type_partition is not original:
        problems.append("uninstall left a wrapper bound")
    if len(tracer.span_start) != sum(tracer.calls):
        problems.append("span count differs from call count")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    failures = self_test()
    for line in failures:
        print(f"tracer self-test: {line}", file=sys.stderr)
    sys.exit(1 if failures else 0)
