"""The three workloads: seeded inputs, the operations of one pass, the
references the outputs are checked against, and the checks.

first_ops() are run once per run, before the passes; ops() are the
operations of one pass, which the run repeats.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Inputs come from the
seed alone and are built here, with the independent arithmetic of
oracle.py; hermeq sees only the finished inputs.  References are built by
reference(), which runs after the timed passes, so that oracle work (sympy
included) counts in no timing and in no memory figure.

check(op, output, ref) returns None when the output matches its reference
and a short reason otherwise.  An operation that raised is recorded as an
Error and always fails its check.
"""

import contextlib
import io
import json
import os
import random

import oracle

DATA = os.path.join("src", "hermeq", "data")


class Error:
    """An operation that raised instead of returning."""

    def __init__(self, exc):
        self.text = "%s: %s" % (type(exc).__name__, exc)


def _printed_classes(root, table):
    # the classes printed in the fixture, read without hermeq's loader
    path = os.path.join(root, DATA, table + ".json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return (sorted(sorted(c) for c in payload["classes"]),
            [int(c) for c in payload["minpoly"]["coeffs"]],
            [[int(x) for x in b] for b in payload["betas"]])


def _rand_poly(rng, n, height, lead=None):
    # degree n, coefficients of absolute value at most height
    f = [rng.randint(-height, height) for _ in range(n)]
    f.append(lead if lead is not None else rng.choice(
        [c for c in range(-height, height + 1) if c]))
    return f


def _squarefree_poly(rng, n, height, lead=None):
    # content 1 and nonzero discriminant, so every decider accepts it
    while True:
        f = _rand_poly(rng, n, height, lead)
        if oracle.content(f) == 1 and oracle.disc(f) != 0:
            return f


class Op:
    __slots__ = ("label", "kind", "run", "data")

    def __init__(self, label, kind, run, data=None):
        self.label = label
        self.kind = kind
        self.run = run
        self.data = data


# ---------------------------------------------------------------------
# battery_core: criteria 1-8 and 10-15 of the paper battery.

CORE_CRITERIA = [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15]
SMOKE_CRITERIA = [6, 13, 14]
REDUCIBLE_SEED = [1, -1, 0, 1]  # the monic cubic criterion 13 starts from


class BatteryCore:
    """The battery's inputs are its own fixed corpora; the seed sets the
    order in which the criteria run."""

    name = "battery_core"

    def __init__(self, seed, root, smoke=False):
        nums = SMOKE_CRITERIA if smoke else CORE_CRITERIA
        self.order = random.Random(seed).sample(nums, len(nums))

    def first_ops(self):
        return []

    def ops(self):
        from hermeq import reproduce
        checks = {num: (name, fn) for num, name, fn in reproduce.CHECKS}
        return [Op(checks[num][0], "criterion", checks[num][1])
                for num in self.order]

    def reference(self, root):
        from hermeq import reproduce
        nonzero = sum(1 for f in reproduce.corpus_polys()
                      if oracle.sympy_disc(f) != 0)
        reducible_g = oracle.pmul([0, 1], REDUCIBLE_SEED)
        reducible_h = [0] + REDUCIBLE_SEED[::-1]
        return {
            "printed": {t: _printed_classes(root, t)[0]
                        for t in ("table1", "table2", "table3")},
            "nonzero_disc": nonzero,
            # the paper's parameters: p = 11 for both, c = 1 monic, c = 89
            "params": {"monic_params": (11, 1), "general_params": (11, 89)},
            "reducible": {"g": reducible_g, "h": reducible_h,
                          "disc_g": oracle.sympy_disc(reducible_g),
                          "disc_h": oracle.sympy_disc(reducible_h)},
            "counts": {"content_identity": ("polynomials", 200),
                       "gl2_transfer": ("transfer_pairs", 50),
                       "ideal_laws": ("polynomials", 50),
                       "norm_form_theorem": ("polynomials", 50),
                       "parametric_pairs": ("pairs", 10),
                       "cross_equivalence": ("pairs", 40)},
        }

    def check(self, op, output, ref):
        ok, detail = output
        if ok is not True:
            return "criterion failed"
        name = op.label
        if detail.get("failures"):
            return "criterion reports failures"
        if name in ref["counts"]:
            key, want = ref["counts"][name]
            if detail.get(key) != want:
                return "%s is %r, want %r" % (key, detail.get(key), want)
        if name in ("table1_partition", "table2_partition"):
            if detail["computed"] != ref["printed"][detail["table"]]:
                return "classes differ from the printed table"
        elif name == "table3_partition":
            printed = ref["printed"]["table3"]
            agree = sum(1 for c in detail["computed"] if c in printed)
            if len(detail["computed"]) != 11 or agree < 10:
                return "table 3 needs 11 classes with 10 printed"
        elif name in ("discriminant_identity", "bounds"):
            key = "tested" if name == "discriminant_identity" else \
                "corpus_checked"
            if detail[key] != ref["nonzero_disc"]:
                return "%s differs from the sympy count" % key
        elif name == "certified_pairs":
            for key, want in ref["params"].items():
                if tuple(detail[key][:2]) != want:
                    return "%s differ from the paper" % key
            for key in ("c1", "c89"):
                pair = detail[key]
                d = str(oracle.sympy_disc(pair["f"]))
                if d != pair["discriminant"] or \
                        d != str(oracle.sympy_disc(pair["g"])):
                    return "certified pair %s: discriminant mismatch" % key
                if pair["witness_det"] not in (1, -1):
                    return "certified pair %s: witness not unimodular" % key
        elif name == "reducible_pairs":
            r = ref["reducible"]
            if detail["g"] != r["g"] or detail["h"] != r["h"]:
                return "reducible pair differs from X f(X), X^4 f(1/X)"
            if r["disc_g"] != r["disc_h"]:
                return "reducible pair discriminants differ"
            if detail["witness_det"] not in (1, -1) or \
                    detail["rejects_bad_constant"] is not True:
                return "reducible pair witness or rejection wrong"
        return None


# ---------------------------------------------------------------------
# kappa_search: the quartic example plus seeded generator searches.

EXAMPLE_F = [255, 13, -62, -1, 4]
EXAMPLE_G = [-6, -7, -2, -1, 5]
PAPER_GENERATOR = ["371", "-116", "-48", "16"]  # of I_F, power basis
SEARCH_BOUND = 4


class KappaSearch:
    """Criterion 9 (the stock F and G at bound 16) once per run, then
    passes over a seeded set of 44 content-1, squarefree-discriminant
    quartics searched at bound 4: six monic ones (I_f = R_f, an immediate
    hit), sixteen translates each of F and G (both boxes exhausted, so most
    searches cost the same and the latency quantiles sit among them), and
    six random nonmonic ones.  Criterion 9 alone takes about half of a run,
    so it is not part of the pass: a pass of it would leave one or two
    passes per run, and no figure could be taken over passes."""

    name = "kappa_search"

    def __init__(self, seed, root, smoke=False):
        rng = random.Random(seed)
        plan = [("monic", 1), ("F", 1), ("nonmonic", 1)] if smoke else \
            [("monic", 6), ("F", 16), ("G", 16), ("nonmonic", 6)]
        self.bound = 2 if smoke else SEARCH_BOUND
        self.quartics = []
        for kind, count in plan:
            for _ in range(count):
                self.quartics.append((kind, self._quartic(rng, kind)))
        self.order = list(range(len(self.quartics)))
        rng.shuffle(self.order)
        self.stock = not smoke  # the stock example is too slow for smoke

    @staticmethod
    def _quartic(rng, kind):
        if kind in ("F", "G"):
            base = EXAMPLE_F if kind == "F" else EXAMPLE_G
            a = rng.choice([a for a in range(-12, 13) if a])
            return oracle.affine_image(base, rng.choice([1, -1]), a)
        while True:
            lead = 1 if kind == "monic" else rng.randint(2, 6)
            f = _rand_poly(rng, 4, 9, lead)
            d = oracle.disc(f)
            if oracle.content(f) == 1 and d and oracle.is_squarefree(d):
                return f

    def first_ops(self):
        from hermeq import reproduce
        return [Op("quartic_example", "criterion",
                   reproduce.check_quartic_example)] if self.stock else []

    def ops(self):
        from hermeq import quartic
        out = []
        for i in self.order:
            kind, f = self.quartics[i]
            out.append(Op("evidence_%s" % kind, kind,
                          lambda f=f: quartic.principality_evidence(
                              f, self.bound), i))
        return out

    def reference(self, root):
        return {
            "example": {"f": list(EXAMPLE_F), "generator": PAPER_GENERATOR,
                        "disc": oracle.sympy_disc(EXAMPLE_F),
                        "disc_g": oracle.sympy_disc(EXAMPLE_G),
                        "bound": 16},
            "bound": self.bound,
            # each quartic as the reference sees it, for the re-check of a
            # reported generator; a monic quartic has I_f = R_f
            "quartics": [list(f) for _, f in self.quartics],
            "monic_generator": ["1", "0", "0", "0"],
        }

    def check(self, op, output, ref):
        if op.label == "quartic_example":
            return self._check_example(output, ref["example"])
        if output["bound"] != ref["bound"]:
            return "searched at the wrong bound"
        f = ref["quartics"][op.data]
        gen = output["generator"]
        if output["status"] == "inconclusive" and gen is None:
            if op.kind == "monic":
                return "monic quartic not principal"
            return None
        if output["status"] != "principal" or gen is None:
            return "bad status %r" % (output["status"],)
        coords = [str(c) for c in gen.coords]
        if op.kind == "monic" and coords != ref["monic_generator"]:
            return "monic generator is not 1"
        if not oracle.generates(f, gen.coords):
            return "reported generator does not give kappa R = I"
        return None

    @staticmethod
    def _check_example(output, ex):
        ok, d = output
        if ok is not True:
            return "criterion failed"
        if d["f_generator"] != {"coords": ex["generator"]}:
            return "F generator differs from the paper"
        if not oracle.generates(ex["f"], [int(c) for c in ex["generator"]]):
            return "paper generator fails kappa R = I"
        if (d["f_status"], d["f_orientation"], d["g_status"],
                d["search_bound"]) != ("principal", "inverse",
                                       "inconclusive", ex["bound"]):
            return "F/G statuses differ from the paper"
        if d["disc"] != ex["disc"] or ex["disc"] != ex["disc_g"]:
            return "discriminant differs from sympy"
        return None


# ---------------------------------------------------------------------
# cli_verdicts: a seeded stream of one-off command-line queries.

def call_cli(argv):
    """hermeq.cli.main(argv) in process; (exit code, stdout, stderr)."""
    from hermeq import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _js(x):
    return json.dumps(x, separators=(",", ":"))


class CliVerdicts:
    """Per pass: 12 disc (3 with a repeated factor), 10 check-z and 8
    check-hermite (half affirmative by construction, half with differing
    discriminants), 12 check-gl2 over tables 1-2 (half within a printed
    class, half across), partition of all three tables, form at degrees
    5, 6 and 7 (four of 7) and normform at degrees 5 and 6 (four of 6)."""

    name = "cli_verdicts"

    def __init__(self, seed, root, smoke=False):
        rng = random.Random(seed)
        self.tables = {t: _printed_classes(root, t)
                       for t in ("table1", "table2")}
        self.queries = []
        k = 1 if smoke else 2
        # degrees cycle instead of being drawn, so every seed asks for the
        # same amount of work
        for i in range(6 * k):
            self._disc(rng, 2 + i % 7, repeated=(i % 4 == 3))
        for i in range(5 * k):
            self._check_z(rng, 3 + i % 4, affirm=i % 2 == 0)
        for i in range(4 * k):
            self._check_hermite(rng, 3 + i % 3, affirm=i % 2 == 0)
        for i in range(6 * k):
            self._check_gl2(rng, "table%d" % (1 + i % 2), affirm=i % 2 == 0)
        for t in (["table1"] if smoke else ["table1", "table2", "table3"]):
            self._add("partition", ["partition", "--table", t], table=t)
        # the eight heaviest queries after two partitions cost about the
        # same, so the 90th latency percentile falls inside that group
        for n in ([5] if smoke else [5, 6, 7, 7, 7, 7]):
            f = _rand_poly(rng, n, 9)
            self._add("form", ["form", "--poly", _js(f)], f=f)
        for n in ([5] if smoke else [5, 6, 6, 6, 6]):
            f = _squarefree_poly(rng, n, 9)
            self._add("normform", ["normform", "--poly", _js(f)], f=f)
        rng.shuffle(self.queries)

    def _add(self, kind, argv, **data):
        self.queries.append((kind, argv, data))

    def _disc(self, rng, n, repeated):
        if repeated:
            p = _rand_poly(rng, rng.randint(1, 2), 5)
            q = _rand_poly(rng, max(n - 2 * (len(p) - 1), 1), 9)
            f = oracle.pmul(oracle.pmul(p, p), q)
        else:
            f = _rand_poly(rng, n, 30)
        self._add("disc", ["disc", "--poly", _js(f)], f=f)

    def _check_z(self, rng, n, affirm):
        f = _rand_poly(rng, n, 12, lead=1)
        if affirm:
            g = oracle.affine_image(f, rng.choice([1, -1]),
                                    rng.randint(-9, 9))
        else:
            while True:
                g = _rand_poly(rng, n, 12, lead=1)
                if oracle.disc(g) != oracle.disc(f):
                    break
        self._add("check-z",
                  ["check-z", "--poly", _js(f), "--other", _js(g)],
                  f=f, g=g, affirm=affirm)

    def _check_hermite(self, rng, n, affirm):
        if affirm:
            # g(X) = e^n f(e X + a) has the root e (alpha - a) in K_f
            f = _squarefree_poly(rng, n, 9)
            e, a = rng.choice([1, -1]), rng.randint(-6, 6)
            g = oracle.affine_image(f, e, a)
            expr = [-e * a, e]
        else:
            # g(X) = c^n f(X / c) has the root c alpha, whose powers span a
            # sublattice of index c^(n(n-1)/2)
            f = _squarefree_poly(rng, n, 9, lead=1)
            c = rng.choice([2, 3])
            g = oracle.root_scaled(f, c)
            expr = [0, c]
        self._add("check-hermite", ["check-hermite", "--poly", _js(f),
                                    "--other", _js(g), "--expr", _js(expr)],
                  f=f, g=g, affirm=affirm)

    def _check_gl2(self, rng, table, affirm):
        printed, f, betas = self.tables[table]
        cls = {i: k for k, c in enumerate(printed) for i in c}
        while True:
            i, j = rng.sample(range(1, len(betas) + 1), 2)
            if (cls.get(i) == cls.get(j)) == affirm and i in cls and j in cls:
                break
        self._add("check-gl2", ["check-gl2", "--poly", _js(f),
                                "--beta", _js(betas[i - 1]),
                                "--target", _js(betas[j - 1])],
                  table=table, affirm=affirm)

    def first_ops(self):
        return []

    def ops(self):
        return [Op(kind, kind, lambda argv=argv: call_cli(argv), data)
                for kind, argv, data in self.queries]

    def reference(self, root):
        rng = random.Random(0x5EED)
        ref = {"printed": {t: _printed_classes(root, t)[0]
                           for t in ("table1", "table2", "table3")},
               "disc": {}, "points": {}}
        for kind, _, data in self.queries:
            if "f" not in data:
                continue
            f = data["f"]
            key = _js(f)
            ref["disc"][key] = oracle.sympy_disc(f)
            if "g" in data:
                ref["disc"][_js(data["g"])] = oracle.sympy_disc(data["g"])
            if kind in ("form", "normform"):
                n = len(f) - 1
                pts = [[rng.choice([1, 2, -1])] +
                       [rng.randint(-3, 3) for _ in range(n - 1)]
                       for _ in range(2)]
                ref["points"][key] = [(p, oracle.sympy_form_value(f, p))
                                      for p in pts]
        return ref

    def check(self, op, output, ref):
        code, stdout, _ = output
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document (exit %r)" % (code,)
        d = op.data
        kind = op.kind
        if kind == "disc":
            want = {"discriminant": str(ref["disc"][_js(d["f"])])}
            if (code, payload) != (0, want):
                return "wrong discriminant"
            return None
        if kind == "partition":
            printed = ref["printed"][d["table"]]
            if code != 0:
                return "partition exit %r" % (code,)
            if d["table"] == "table3":
                agree = sum(1 for c in payload["classes"] if c in printed)
                good = payload["count"] == 11 and agree >= 10
            else:
                good = (payload["classes"] == printed
                        and payload["agrees_with_printed"] is True)
            return None if good else "classes differ from the printed table"
        if kind in ("form", "normform"):
            return self._check_form(kind, code, payload,
                                    ref["points"][_js(d["f"])],
                                    len(d["f"]) - 1)
        if kind == "check-gl2":
            if code != (0 if d["affirm"] else 1) or \
                    payload["related"] is not d["affirm"]:
                return "verdict differs from the printed classes"
            if d["affirm"]:
                gamma = [[int(x) for x in r]
                         for r in payload["witness"]["gamma"]]
                if oracle.det(gamma) not in (1, -1):
                    return "witness not unimodular"
            return None
        # check-z and check-hermite: affirmative by construction, negative
        # because the discriminants differ
        if d["affirm"]:
            if code != 0:
                return "equivalent pair reported as exit %r" % (code,)
            w = payload["witness"]
            if kind == "check-z":
                if oracle.affine_image(d["f"], w["e"], w["a"]) != d["g"]:
                    return "translation witness does not map f to g"
            elif oracle.det([[int(x) for x in r] for r in w]) not in (1, -1):
                return "lattice witness not unimodular"
            return None
        if ref["disc"][_js(d["f"])] == ref["disc"][_js(d["g"])]:
            return "reference negative has equal discriminants"
        if code != 1 or payload.get("witness") is not None:
            return "inequivalent pair reported as exit %r" % (code,)
        return None

    @staticmethod
    def _check_form(kind, code, payload, points, n):
        if code != 0:
            return "%s exit %r" % (kind, code)
        form = payload if kind == "form" else payload["form"]
        if kind == "normform" and payload["k"] != n - 1:
            return "normform used the wrong level"
        if form["nvars"] != n:
            return "form has the wrong number of variables"
        signs = set()
        for point, want in points:
            # the norm form is on the basis 1, alpha, ..., alpha^(n-1), the
            # reverse of the order of the variables of [f]
            at = point if kind == "form" else point[::-1]
            got = 0
            for term in form["terms"]:
                t = int(term["coeff"])
                for x, e in zip(at, term["exp"]):
                    t *= x ** e
                got += t
            if got == want:
                if want:
                    signs.add(1)
            elif got == -want and kind == "normform":
                signs.add(-1)
            else:
                return "%s value differs from the sympy resultant" % kind
        # the norm form equals [f] up to one global sign
        return None if len(signs) <= 1 else "normform sign is not global"


WORKLOADS = {w.name: w for w in (BatteryCore, KappaSearch, CliVerdicts)}
