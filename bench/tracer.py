"""Span tracer that wraps the eigenprod layers from outside the package.

The package binds names at import time (``from .interval import
enclose_zeta``), so a function is wrapped in every layer module that looks
it up, not only where it is defined.  Each call of a wrapped function
records one span ``[name, parent, start, end, outermost, under_escalation]``.
Spans stay in memory and are written out, under one run id, when the traced
command ends.  Nothing under ``src/`` changes: the wrappers live only in the
traced child process.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "cli",
    "fixtures",
    "verifier",
    "interval",
    "exact",
    "quadfield",
    "hmf_coeffs",
    "report",
)

# Methods looked up on their class at each call; they are wrapped on the
# class itself.
METHODS = (
    ("fixtures", "Fixtures", "load"),
    ("report", "VerificationReport", "to_json"),
)

# Arithmetic leaves called once per lattice element or residue class.  A
# span per call would cost more than the work it measures, so they stay
# unwrapped and their time counts as their caller's self time.
LEAVES = frozenset(
    {
        "exact.is_fundamental_discriminant",
        "exact.kronecker",
        "hmf_coeffs.eisenstein_coeff",
        "hmf_coeffs.element_norm",
        "hmf_coeffs.element_trace",
        "hmf_coeffs.ideal_from_prime_powers",
        "hmf_coeffs.is_totally_nonnegative",
    }
)

ESCALATE = "interval.evaluate_with_escalation"

SECTION_FUNCTIONS = (
    "verify_section3_unequal",
    "verify_section3_equal",
    "verify_section4_inert",
    "verify_section4_noninert",
    "verify_section5",
)


def _endpoint_bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Wraps the layer functions and keeps the spans of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._depth = {ESCALATE: 0}
        self._caches = {}
        self._cache_before = {}
        self.coefficient_args = set()
        self.max_endpoint_bits = 0
        self.interval_checks = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"eigenprod.{layer}") for layer in LAYERS
        }
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in LEAVES
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                if hasattr(obj, "cache_info"):
                    self._caches[name] = obj
                wrapped[id(obj)] = (obj, self._wrap(name, obj))
        # rebind every lookup site, including `from .x import f` copies
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, attr, wrapped[id(obj)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = inspect.getattr_static(cls, meth)
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", raw))
        self._cache_before = {n: f.cache_info() for n, f in self._caches.items()}

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        observe = self._observers().get(name)
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    depth[name] == 0, depth[ESCALATE] > 0]
            depth[name] += 1
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                depth[name] -= 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self):
        return {
            "hmf_coeffs.coefficient": self._see_coefficient,
            "interval.certified_compare": self._see_compare,
            **{f"verifier.{fn}": self._see_section for fn in SECTION_FUNCTIONS},
        }

    def _see_coefficient(self, args, result):
        form, nu = args
        self.coefficient_args.add((form.discriminant, form.weight, nu.x, nu.y))

    def _see_compare(self, args, result):
        x = args[0]
        bits = max(_endpoint_bits(x.lo), _endpoint_bits(x.hi))
        if bits > self.max_endpoint_bits:
            self.max_endpoint_bits = bits

    def _see_section(self, args, report):
        self.interval_checks += sum(
            1 for rec in report.constants if rec.decision.precision_used > 0
        )

    # -- results ---------------------------------------------------------

    def cache_deltas(self) -> dict:
        out = {}
        for name, fn in self._caches.items():
            before, after = self._cache_before[name], fn.cache_info()
            out[name] = {
                "hits": after.hits - before.hits,
                "misses": after.misses - before.misses,
            }
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "names": names,
            "fields": ["name", "parent", "start", "end"],
            "spans": [
                [index[s[0]], s[1], round(s[2], 7), round(s[3], 7)] for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, from the spans.

        Inclusive time counts only the outermost span of a name, so
        recursion is not counted twice.  Self time is a span's duration
        minus the time covered by its child spans.  The ``under_escalate_*``
        entries count the calls and inclusive time inside an escalation.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]
        stats = {}
        for (name, _, start, end, outermost, under), covered in zip(spans, child_time):
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = {
                    "calls": 0,
                    "s": 0.0,
                    "self_s": 0.0,
                    "under_escalate_calls": 0,
                    "under_escalate_s": 0.0,
                }
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
            entry["under_escalate_calls"] += under
            if outermost:
                entry["s"] += end - start
                if under:
                    entry["under_escalate_s"] += end - start
        return stats
