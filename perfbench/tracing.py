"""Span tracing installed from outside the program.

Tracer.install() rebinds each traced hermeq function, in every hermeq.*
module namespace that holds it, to a wrapper that records a span: name,
parent span, enclosing benchmark operation, start and end.  Calls made
through a module global (including calls inside the defining module) and
through names imported into other modules are all caught.  uninstall()
puts the original functions back.  The untraced run never calls install(),
so it runs hermeq exactly as shipped.
"""

import functools
import json
import sys
import time

# The layers: every public function whose calls and self time are reported.
TRACED = [
    "intpoly.resultant", "intpoly.discriminant",
    "intmat.det_bareiss", "intmat.hnf", "intmat.hnf_lattice",
    "intmat.inverse_rational", "intmat.det_cofactor",
    "forms.hermite_form", "forms.act_gln",
    "algebra.zeta_lattice", "algebra.invariant_order", "algebra.lattice_mul",
    "algebra.colon_lattice", "algebra.norm_form",
    "algebra.colon_and_kappa_search",
    "quartic.principality_evidence",
    "equivalence.gl2_witness_solve", "equivalence.partition_gl2",
    "equivalence.hermite_witness_check", "equivalence.z_equiv_test",
    "family.find_params",
    "jsonio.canonical_dumps", "cli.main",
]

# Functions whose "returned something" share is a useful-work ratio.
HIT_RATIO = ["algebra.colon_and_kappa_search", "equivalence.gl2_witness_solve"]

SEARCH = "algebra.colon_and_kappa_search"

# span record fields
NAME, PARENT, OP, START, END, HIT, EXTRA = range(7)
# EXTRA holds the label of an operation span and the box size of a search
# span that exhausted its box


def _box_size(args, kwargs):
    # candidates in one exhausted box: one of each +- pair of the nonzero
    # integer vectors of sup-norm <= bound, ((2B+1)^n - 1) / 2
    lattice = args[0]
    bound = args[2] if len(args) > 2 else kwargs.get("bound", 50)
    return ((2 * bound + 1) ** lattice.algebra.n - 1) // 2


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._saved = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "hermeq" or name.startswith("hermeq."))
                   and m is not None]
        for target in TRACED:
            modname, fname = target.split(".")
            orig = getattr(sys.modules["hermeq." + modname], fname)
            wrapper = self._wrap(target, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved = []

    def begin_op(self, label):
        """Open the root span of one benchmark operation."""
        self._op = len(self.spans)
        self.spans.append(["op", -1, self._op, time.perf_counter(), 0.0,
                           None, label])
        self._stack.append(self._op)

    def end_op(self):
        self._stack.pop()
        self.spans[self._op][END] = time.perf_counter()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_search = name == SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, self._op, 0.0, 0.0,
                   None, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            rec[HIT] = result is not None
            if is_search and result is None:
                rec[EXTRA] = _box_size(args, kwargs)
            return result

        return wrapper

    def summary(self, passes):
        """Per-pass layer metrics: calls, self time, hit ratios and the
        candidate rate of exhausted search boxes."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        calls = {t: 0 for t in TRACED}
        self_s = {t: 0.0 for t in TRACED}
        hits = {t: 0 for t in HIT_RATIO}
        candidates, box_s = 0, 0.0
        for i, rec in enumerate(self.spans):
            name = rec[NAME]
            if name == "op":
                continue
            calls[name] += 1
            self_s[name] += rec[END] - rec[START] - child[i]
            if name in hits and rec[HIT]:
                hits[name] += 1
            if name == SEARCH and rec[EXTRA] is not None:
                candidates += rec[EXTRA]
                box_s += rec[END] - rec[START]
        out = {}
        for t in TRACED:
            out[t + ".calls"] = calls[t] / passes
            out[t + ".self_s"] = self_s[t] / passes
        for t in HIT_RATIO:
            out[t + ".hit_ratio"] = hits[t] / calls[t] if calls[t] else 0.0
        out["candidates_per_s"] = candidates / box_s if box_s else 0.0
        return out

    def write(self, path):
        """Write every span as one JSON line: name, parent index, operation
        index, start and end (perf_counter seconds), and the operation
        label on operation spans."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                row = rec[:END + 1]
                if rec[NAME] == "op":
                    row.append(rec[EXTRA])
                fh.write(json.dumps(row) + "\n")
