"""Per-layer tracing of algcert from outside its source tree.

While installed, the tracer replaces selected functions and methods of the
algcert modules with wrappers, at every place the package binds them (a
function imported by name into another module is replaced there too), and
``uninstall`` puts the originals back. There are two kinds of wrapper:

* Spans, at coarse layer boundaries (``run_cli``, ``load_presentation``,
  ``ideal_span``, the closures, the certificate entry points, ...). A span's
  self time is its duration minus the time of the spans it encloses. A call
  into the group of the enclosing span joins that span instead of opening a
  new one.
* Hot counters, on functions called up to millions of times per job
  (``AlgebraPresentation.mul``, ``SpanBuilder.add``, ...). They count calls
  and time, keyed by the group of the enclosing span. They open no span, so
  their time stays inside the enclosing span's self time.

Scalar field operations are only counted.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "formats", "instances", "algebra", "linalg", "closure",
           "decomposition", "certificates")

_CLAIM_ENTRY_POINTS = (
    "lemma1_certificate", "lemma2_generating_set", "lemma2_certificate",
    "lemma3_jordan_check", "theorem1_certify", "lemma4_check", "lemma5_sets",
    "lemma5_certificate", "lemma6_check", "theorem2_certify",
    "lemma7_reduction_check", "lemma8_check", "lemma9_check", "stagnation_probe",
)

# (module, attribute path) -> span group
SPANS = {
    ("cli", "run_cli"): "cli",
    ("formats", "load_presentation"): "formats.load",
    ("formats", "loads_presentation"): "formats.load",
    ("instances", "build_instance"): "instances.build",
    ("instances", "build_matrix_algebra"): "instances.build",
    ("instances", "build_example1"): "instances.build",
    ("instances", "build_example2"): "instances.build",
    ("algebra", "ideal_span"): "algebra.ideal_span",
    ("algebra", "validate_presentation"): "algebra.validate",
    ("closure", "lie_closure"): "closure.lie",
    ("closure", "assoc_closure"): "closure.assoc",
    ("closure", "pair_closure"): "closure.pair",
    ("decomposition", "peirce_decompose"): "decomposition",
    ("decomposition", "z_grading"): "decomposition",
    ("decomposition", "kh_split"): "decomposition",
    ("certificates", "hypotheses_for"): "certificates.hypotheses",
    ("certificates", "commutator_span"): "certificates.targets",
    ("certificates", "derived_subspace"): "certificates.targets",
    ("certificates", "skew_commutator_span"): "certificates.targets",
    ("certificates", "derived_K_subspace"): "certificates.targets",
    **{("certificates", name): "certificates.claim" for name in _CLAIM_ENTRY_POINTS},
}

# (module, attribute path) -> hot counter name
HOT = {
    ("algebra", "AlgebraPresentation.mul"): "algebra.mul",
    ("linalg", "SpanBuilder.add"): "linalg.span_add",
    ("linalg", "Subspace.reduce"): "linalg.reduce",
    ("linalg", "CombinationSolver.add"): "linalg.solver",
    ("linalg", "CombinationSolver.solve"): "linalg.solver",
}

FIELD_OPS = tuple(
    ("linalg", f"{cls}.{op}")
    for cls in ("RationalField", "PrimeField")
    for op in ("add", "sub", "mul", "neg", "inv")
)

# Word enumerators that charge the word budget. Each keeps ``count`` and
# ``budget`` as locals or on ``self``; they are read when the enumerator
# calls ``mul``. A name missing from the package is skipped.
ENUMERATORS = (
    ("certificates", "_distinct_index_monomials"),
    ("certificates", "_alternating_products"),
    ("certificates", "_WordLevels.level"),
)

# Claims of the benchmark's jobs, for the per-claim certificates self time.
CLAIMS = ("thm1", "thm2", "lemma1", "stagnation")
PARENT_LAYERS = ("cli", "algebra", "closure", "decomposition", "certificates")

# name -> unit, in report order. Every time here is nonzero on each workload.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "formats.load.calls": "count",
    "formats.load.self_s": "s",
    "instances.build_s": "s",
    "algebra.mul.calls": "count",
    "algebra.mul.self_s": "s",
    **{f"algebra.mul.calls.in_{layer}": "count" for layer in PARENT_LAYERS},
    "algebra.mul.operand_density": "ratio",
    "algebra.mul.zero_ratio": "ratio",
    "algebra.ideal_span.calls": "count",
    "algebra.ideal_span.self_s": "s",
    "algebra.ideal_span.repeat_ratio": "ratio",
    "algebra.validate.calls": "count",
    "algebra.validate.self_s": "s",
    "linalg.span_add.calls": "count",
    "linalg.span_add.self_s": "s",
    "linalg.span_add.grew_ratio": "ratio",
    "linalg.span_add.at_full_rank": "count",
    "linalg.reduce.calls": "count",
    "linalg.reduce.self_s": "s",
    "linalg.solver.calls": "count",
    "linalg.field_ops": "count",
    "linalg.entry_bits_max": "bits",
    "closure.lie.calls": "count",
    "closure.assoc.calls": "count",
    "closure.pair.calls": "count",
    "closure.self_s": "s",
    "closure.rounds": "count",
    "closure.products": "count",
    "closure.grew_ratio": "ratio",
    "decomposition.self_s": "s",
    "certificates.self_s": "s",
    "certificates.hypotheses.calls": "count",
    "certificates.hypotheses.self_s": "s",
    "certificates.targets.self_s": "s",
    "certificates.words.products": "count",
    "certificates.budget_used": "ratio",
}

# Times that are 0 on a workload that never enters the layer; printed with
# a traced run's output but not reported as metrics.
DETAIL_UNITS = {
    "linalg.solver.self_s": "s",
    **{f"closure.{kind}.self_s": "s" for kind in ("lie", "assoc", "pair")},
    **{f"certificates.self_s.{claim}": "s" for claim in CLAIMS},
}


def _resolve(modules, module, path):
    """(owner, attribute, function) for 'name' or 'Class.name', or None."""
    owner = modules[module]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return (owner, attr, fn) if callable(fn) else None


def _bit_length(x):
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class _Frame:
    __slots__ = ("group", "child")

    def __init__(self, group):
        self.group = group
        self.child = 0.0


class Tracer:
    """Collects span and counter statistics while installed."""

    def __init__(self):
        import algcert
        import algcert.errors

        self._package = algcert
        self._budget_error = algcert.errors.BudgetExceededError
        self._modules = {}
        for name in MODULES:
            __import__(f"algcert.{name}")
            self._modules[name] = sys.modules[f"algcert.{name}"]
        self._patches = []  # (owner, attribute, original)
        self.stack = [_Frame("root")]
        self.spans = defaultdict(lambda: [0, 0.0])  # (group, claim) -> [calls, self_s]
        self.hot = defaultdict(lambda: [0, 0.0])    # (name, parent group) -> [calls, s]
        self.counts = Counter()
        self.claim = None
        self._ideal_keys = set()

    # -- statistics -----------------------------------------------------------

    def reset(self):
        """Clear the statistics; installed wrappers keep recording into them."""
        self.stack[1:] = []
        self.stack[0].child = 0.0
        self.spans.clear()
        self.hot.clear()
        self.counts.clear()
        self.claim = None
        self._ideal_keys = set()

    def begin_job(self, claim):
        """Mark the start of one CLI job; repeats are counted within a job."""
        self.claim = claim
        self._ideal_keys = set()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, group, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            if stack[-1].group == group:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs)
            frame = _Frame(group)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._budget_error as exc:
                tracer._budget(exc.count, exc.budget)
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1].child += duration
                stat = tracer.spans[(group, tracer.claim)]
                stat[0] += 1
                stat[1] += duration - frame.child
            if group.startswith("closure."):
                tracer.counts["closure.rounds"] += len(result.rounds) - 1
            return result

        return span

    def _hot(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            stat = tracer.hot[(name, tracer.stack[-1].group)]
            stat[0] += 1
            stat[1] += perf_counter() - start
            return result

        return hot

    def _mul(self, fn, enumerators):
        tracer = self
        counts = self.counts
        getframe = sys._getframe

        @functools.wraps(fn)
        def mul(P, a, b):
            start = perf_counter()
            result = fn(P, a, b)
            elapsed = perf_counter() - start
            parent = tracer.stack[-1].group
            stat = tracer.hot[("algebra.mul", parent)]
            stat[0] += 1
            stat[1] += elapsed
            nonzero = sum(map(bool, a.coords)) + sum(map(bool, b.coords))
            counts["mul.density_sum"] += nonzero / (2 * len(a.coords))
            if not any(result.coords):
                counts["mul.zero"] += 1
            caller = getframe(1)
            if caller.f_code in enumerators:
                local = caller.f_locals
                holder = local.get("self")
                tracer._budget(
                    local.get("count", getattr(holder, "count", 0)),
                    local.get("budget", getattr(holder, "budget", 0)),
                )
            return result

        return mul

    def _span_add(self, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def add(builder, vec):
            full = builder.is_full
            start = perf_counter()
            grew = fn(builder, vec)
            elapsed = perf_counter() - start
            parent = tracer.stack[-1].group
            stat = tracer.hot[("linalg.span_add", parent)]
            stat[0] += 1
            stat[1] += elapsed
            counts["span_add.full"] += full
            counts["span_add.grew"] += grew
            if parent.startswith("closure."):
                counts["closure.products"] += 1
                counts["closure.grew"] += grew
            return grew

        return add

    def _subspace(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def subspace(builder):
            result = fn(builder)
            bits = max((_bit_length(x) for row in result.basis for x in row if x), default=0)
            if bits > counts["entry_bits_max"]:
                counts["entry_bits_max"] = bits
            return result

        return subspace

    def _field_op(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def op(*args):
            counts["field_ops"] += 1
            return fn(*args)

        return op

    def _observe_ideal(self, args, kwargs):
        P, x = args[0], args[1]
        coeff = args[2] if len(args) > 2 else kwargs.get("unit_coeff", 0)
        key = (id(P), x.coords, coeff)
        if key in self._ideal_keys:
            self.counts["ideal_span.repeats"] += 1
        self._ideal_keys.add(key)

    def _budget(self, count, budget):
        if budget:
            share = count / budget
            if share > self.counts["budget_used"]:
                self.counts["budget_used"] = share

    # -- installation -----------------------------------------------------------

    def _wrappers(self):
        enumerators = set()
        for module, path in ENUMERATORS:
            found = _resolve(self._modules, module, path)
            if found is not None:
                enumerators.add(found[2].__code__)
        out = []
        for (module, path), group in SPANS.items():
            observe = self._observe_ideal if group == "algebra.ideal_span" else None
            out.append((module, path, lambda fn, g=group, o=observe: self._span(g, fn, o)))
        for (module, path), name in HOT.items():
            if name == "algebra.mul":
                make = lambda fn: self._mul(fn, enumerators)
            elif name == "linalg.span_add":
                make = self._span_add
            else:
                make = lambda fn, n=name: self._hot(n, fn)
            out.append((module, path, make))
        out.append(("linalg", "SpanBuilder.subspace", self._subspace))
        out.extend((module, path, self._field_op) for module, path in FIELD_OPS)
        return out

    def _binding_sites(self, fn):
        """Every module global bound to fn, across the whole package."""
        for module in [self._package, *self._modules.values()]:
            for name, value in vars(module).items():
                if value is fn:
                    yield module, name

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        originals = []
        for module, path, make in self._wrappers():
            found = _resolve(self._modules, module, path)
            if found is None:
                raise RuntimeError(f"algcert.{module}.{path} not found")
            owner, attr, fn = found
            wrapper = make(fn)
            sites = {(owner, attr)} | set(self._binding_sites(fn))
            for site_owner, site_attr in sites:
                self._patches.append((site_owner, site_attr, fn))
                setattr(site_owner, site_attr, wrapper)
            originals.append(fn)
        left = self.unwrapped(originals)
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped binding sites: {left}")
        self.originals = originals

    def unwrapped(self, originals):
        """Binding sites that still hold one of ``originals``."""
        left = []
        for fn in originals:
            left.extend(f"{m.__name__}.{name}" for m, name in self._binding_sites(fn))
        return left

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- results ----------------------------------------------------------------

    def _span_total(self, prefix, claim=None):
        calls = total = 0
        for (group, job_claim), (n, s) in self.spans.items():
            if (group == prefix or group.startswith(prefix + ".")) and (
                claim is None or job_claim == claim
            ):
                calls += n
                total += s
        return calls, total

    def _hot_total(self, name, parent=None):
        calls = total = 0
        for (hot_name, group), (n, s) in self.hot.items():
            if hot_name == name and (parent is None or group.split(".")[0] == parent):
                calls += n
                total += s
        return calls, total

    def metrics(self):
        """Per-layer metrics and details, as name -> value, in PER_LAYER_UNITS
        then DETAIL_UNITS order."""
        c = self.counts
        m = {}
        m["cli.self_s"] = self._span_total("cli")[1]
        m["formats.load.calls"], m["formats.load.self_s"] = self._span_total("formats.load")
        m["instances.build_s"] = self._span_total("instances.build")[1]
        mul_calls, m["algebra.mul.self_s"] = self._hot_total("algebra.mul")
        m["algebra.mul.calls"] = mul_calls
        for layer in PARENT_LAYERS:
            m[f"algebra.mul.calls.in_{layer}"] = self._hot_total("algebra.mul", layer)[0]
        m["algebra.mul.operand_density"] = c["mul.density_sum"] / mul_calls if mul_calls else 0.0
        m["algebra.mul.zero_ratio"] = c["mul.zero"] / mul_calls if mul_calls else 0.0
        ideal_calls, m["algebra.ideal_span.self_s"] = self._span_total("algebra.ideal_span")
        m["algebra.ideal_span.calls"] = ideal_calls
        m["algebra.ideal_span.repeat_ratio"] = (
            c["ideal_span.repeats"] / ideal_calls if ideal_calls else 0.0
        )
        m["algebra.validate.calls"], m["algebra.validate.self_s"] = self._span_total("algebra.validate")
        add_calls, m["linalg.span_add.self_s"] = self._hot_total("linalg.span_add")
        m["linalg.span_add.calls"] = add_calls
        m["linalg.span_add.grew_ratio"] = c["span_add.grew"] / add_calls if add_calls else 0.0
        m["linalg.span_add.at_full_rank"] = c["span_add.full"]
        m["linalg.reduce.calls"], m["linalg.reduce.self_s"] = self._hot_total("linalg.reduce")
        m["linalg.solver.calls"], m["linalg.solver.self_s"] = self._hot_total("linalg.solver")
        m["linalg.field_ops"] = c["field_ops"]
        m["linalg.entry_bits_max"] = c["entry_bits_max"]
        for kind in ("lie", "assoc", "pair"):
            m[f"closure.{kind}.calls"], m[f"closure.{kind}.self_s"] = self._span_total(f"closure.{kind}")
        m["closure.self_s"] = self._span_total("closure")[1]
        m["closure.rounds"] = c["closure.rounds"]
        m["closure.products"] = c["closure.products"]
        m["closure.grew_ratio"] = (
            c["closure.grew"] / c["closure.products"] if c["closure.products"] else 0.0
        )
        m["decomposition.self_s"] = self._span_total("decomposition")[1]
        m["certificates.self_s"] = self._span_total("certificates")[1]
        for claim in CLAIMS:
            m[f"certificates.self_s.{claim}"] = self._span_total("certificates", claim)[1]
        m["certificates.hypotheses.calls"], m["certificates.hypotheses.self_s"] = (
            self._span_total("certificates.hypotheses")
        )
        m["certificates.targets.self_s"] = self._span_total("certificates.targets")[1]
        m["certificates.words.products"] = self.hot[("algebra.mul", "certificates.claim")][0]
        m["certificates.budget_used"] = c["budget_used"]
        return {name: m[name] for name in {**PER_LAYER_UNITS, **DETAIL_UNITS}}
