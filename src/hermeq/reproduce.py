"""End-to-end reproduction battery.

Fifteen checks re-derive the library's headline results from scratch:
randomized identity sweeps, the three published partition tables, the
quartic transport example, the polynomial family certificates, and the
bound evaluations.  Each check returns (ok, detail) with a JSON-safe
detail dict; reproduce_all() assembles the full machine-readable report.

Everything is seeded and single-threaded, so two runs of the battery on
the same build produce byte-identical reports (timings are deliberately
kept out of the report; the command line prints them to stderr instead).
"""

import os
import random
import time
from fractions import Fraction

from .algebra import (EtaleAlgebra, IdealLattice, invariant_order,
                      lattice_equal, lattice_mul, lattice_norm, norm_form,
                      trace_form_disc, zeta_lattice)
from .bounds import coeff_bound_log, max_degree, split_counts
from .equivalence import (DegreeDropError, PreconditionError, gl2_act,
                          hermite_witness_check, partition_gl2,
                          reducible_pair, z_equiv_test)
from .family import (CertificateError, build_kit, find_params,
                     generate_certified_pair, tilde_polys,
                     verify_kit_identities)
from .forms import (act_gln, form_content, hermite_form, transfer_matrix,
                    verify_disc_identity)
from .intmat import det_bareiss, is_unimodular, mat_mul, transpose
from .intpoly import (DomainError, content, degree, discriminant, leading,
                      normalize, poly_compose, poly_mul, poly_shift,
                      poly_sub)
from .jsonio import element_to_json, load_table
from .pairfamilies import (quartic_pair, quartic_samples, quintic_pair,
                           quintic_samples)
from .quartic import (EXAMPLE_F, EXAMPLE_G, principality_evidence,
                      verify_example)

# The seed of every random draw in the battery, by what draws it; the
# corpus serves criteria 1, 2 and 14.  A run manifest records them.
SEEDS = {"corpus": 20101, "gl2_transfer": 20103, "ideal_laws": 20104,
         "norm_form_theorem": 20105, "cross_equivalence": 20115}


def corpus_polys():
    """The shared randomized corpus: 200 polynomials, ascending
    coefficients, exact degree 2 to 5, coefficients between -20 and 20."""
    rng = random.Random(SEEDS["corpus"])
    out = []
    while len(out) < 200:
        n = rng.randint(2, 5)
        f = [rng.randint(-20, 20) for _ in range(n + 1)]
        if f[-1] == 0:
            continue
        out.append(f)
    return out


def _rand_gl2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(4):
        kind = rng.randrange(3)
        s = rng.randint(-2, 2)
        if kind == 0:
            e = [[1, s], [0, 1]]
        elif kind == 1:
            e = [[1, 0], [s, 1]]
        else:
            e = [[0, -1], [1, 0]]
        m = mat_mul(m, e)
    return m


def check_content_identity():
    failures = []
    for f in corpus_polys():
        n = degree(f)
        if form_content(hermite_form(f)) != content(f) ** (n - 1):
            failures.append(f)
    return not failures, {"polynomials": 200, "failures": failures}


def check_disc_identities():
    tested = 0
    failures = []
    for f in corpus_polys():
        d = discriminant(f)
        if d == 0:
            continue
        tested += 1
        if (not verify_disc_identity(f)
                or trace_form_disc(invariant_order(f)) != d):
            failures.append(f)
    return not failures, {"tested": tested, "failures": failures}


def check_gl2_transfer():
    rng = random.Random(SEEDS["gl2_transfer"])
    done = 0
    failures = []
    while done < 50:
        f = [rng.randint(-20, 20) for _ in range(rng.randint(3, 6))]
        if not f or f[-1] == 0 or degree(f) < 2:
            continue
        gamma = _rand_gl2(rng)
        try:
            g = gl2_act(f, gamma)
        except DegreeDropError:
            continue
        t = transfer_matrix(gamma, degree(f))
        lhs = hermite_form(g)
        rhs = act_gln(hermite_form(f), transpose(t))
        if not is_unimodular(t) or (lhs != rhs and lhs != -rhs):
            failures.append({"f": f, "gamma": gamma})
        done += 1
    anti = 0
    for _ in range(50):
        g1, g2 = _rand_gl2(rng), _rand_gl2(rng)
        n = rng.randint(2, 5)
        if transfer_matrix(mat_mul(g1, g2), n) == mat_mul(
                transfer_matrix(g2, n), transfer_matrix(g1, n)):
            anti += 1
    ok = not failures and anti == 50
    return ok, {"transfer_pairs": done, "failures": failures,
                "antihomomorphism_pairs": anti}


def _ideal_corpus(seed):
    rng = random.Random(seed)
    out = []
    while len(out) < 50:
        n = rng.randint(2, 5)
        f = [rng.randint(-20, 20) for _ in range(n + 1)]
        if f[-1] == 0 or content(f) != 1 or discriminant(f) == 0:
            continue
        out.append(f)
    return out


def check_ideal_laws():
    failures = []
    for f in _ideal_corpus(SEEDS["ideal_laws"]):
        alg = EtaleAlgebra(f)
        n = degree(f)
        f0 = abs(leading(f))
        r = invariant_order(f, alg)
        i1 = zeta_lattice(f, 1, alg)
        power = i1
        for k in range(1, n):
            ik = zeta_lattice(f, k, alg)
            if not lattice_equal(power, ik):
                failures.append({"f": f, "k": k, "law": "power"})
            if lattice_norm(ik, r) != Fraction(1, f0 ** k):
                failures.append({"f": f, "k": k, "law": "norm"})
            if not lattice_equal(lattice_mul(r, ik), ik):
                failures.append({"f": f, "k": k, "law": "module"})
            power = lattice_mul(power, i1)
    return not failures, {"polynomials": 50, "failures": failures}


def check_norm_form_theorem():
    failures = []
    for f in _ideal_corpus(SEEDS["norm_form_theorem"]):
        alg = EtaleAlgebra(f)
        n = degree(f)
        r = zeta_lattice(f, 0, alg)
        top = zeta_lattice(f, n - 1, alg)
        desc = IdealLattice(alg, [[int(j == n - 1 - i) for j in range(n)]
                                  for i in range(n)])
        if not lattice_equal(top, desc):
            failures.append({"f": f, "reason": "top ideal is not the "
                                               "power lattice"})
            continue
        nf = norm_form(desc, r)
        hf = hermite_form(f)
        if nf != hf and nf != -hf:
            failures.append({"f": f, "reason": "norm form differs"})
    return not failures, {"polynomials": 50, "failures": failures}


def _table_partition(name, table_dir=None):
    # (computed == printed, detail) for one packaged or given table
    source = name
    if table_dir is not None:
        source = os.path.join(table_dir, name + ".json")
    try:
        table = load_table(source)
        computed = sorted(sorted(i + 1 for i in cls)
                          for cls in partition_gl2(table["minpoly"],
                                                   table["betas"]))
    except DomainError as exc:
        return False, {"table": name, "error": str(exc)}
    printed = sorted(table["classes"])
    agree = [c for c in computed if c in printed]
    return computed == printed, {
        "table": name,
        "computed": computed,
        "printed": printed,
        "agreement": len(agree),
        "computed_only": [c for c in computed if c not in printed],
        "printed_only": [c for c in printed if c not in computed],
    }


def check_table1(table_dir=None):
    return _table_partition("table1", table_dir)


def check_table2(table_dir=None):
    return _table_partition("table2", table_dir)


def check_table3(table_dir=None):
    """The sextic table: the printed list assigns one generator twice and
    omits another, so the requirement is 11 classes with agreement on at
    least 10, plus an explicit report of where 15 and 25 land."""
    ok, detail = _table_partition("table3", table_dir)
    if "error" in detail:
        return ok, detail
    computed = detail["computed"]
    detail["class_of_15"] = next((c for c in computed if 15 in c), None)
    detail["class_of_25"] = next((c for c in computed if 25 in c), None)
    return len(computed) == 11 and detail["agreement"] >= 10, detail


def check_quartic_example():
    report = verify_example()
    ev_f = principality_evidence(EXAMPLE_F)
    ev_g = principality_evidence(EXAMPLE_G)
    detail = {
        "transport": report["act_matches"],
        "disc_equal": report["disc_equal"],
        "disc": report["disc"],
        "disc_squarefree": report["disc_squarefree"],
        "f_status": ev_f["status"],
        "f_orientation": ev_f["orientation"],
        "f_generator": (element_to_json(ev_f["generator"])
                        if ev_f["generator"] is not None else None),
        "g_status": ev_g["status"],
        "search_bound": ev_f["bound"],
    }
    ok = (report["act_matches"] and report["disc_equal"]
          and report["disc_squarefree"]
          and ev_f["status"] == "principal"
          and ev_g["status"] == "inconclusive")
    return ok, detail


def _series_oracle_k(n):
    # independent route to the same polynomial: expand sqrt(1-4X) by the
    # binomial recurrence over exact fractions, truncate the generating
    # series, then push it through compose/divide/reflect by hand
    b = [Fraction(1)]
    for i in range(1, n + 1):
        b.append(b[-1] * Fraction(-4) * (Fraction(1, 2) - (i - 1)) / i)
    a = [-b[i + 1] / 2 for i in range(n - 1)]

    def fmul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    comp = [Fraction(0)]
    powxx = [Fraction(1)]
    for co in a:
        while len(comp) < len(powxx):
            comp.append(Fraction(0))
        for j, v in enumerate(powxx):
            comp[j] += co * v
        powxx = fmul(powxx, [Fraction(0), Fraction(1), Fraction(-1)])
    num = fmul([Fraction(1), Fraction(-1)], comp)
    num[0] -= 1
    if any(num[i] != 0 for i in range(n - 1)):
        return None
    h = num[n - 1:]
    krev = [Fraction(0)]
    pow1x = [Fraction(1)]
    for co in h:
        while len(krev) < len(pow1x):
            krev.append(Fraction(0))
        for j, v in enumerate(pow1x):
            krev[j] -= co * v
        pow1x = fmul(pow1x, [Fraction(1), Fraction(-1)])
    if any(v.denominator != 1 for v in krev):
        return None
    return [int(v) for v in krev]


def check_family_identities():
    failures = []
    for n in range(4, 11):
        kit = build_kit(n)
        report = verify_kit_identities(kit)
        for name, good in sorted(report.items()):
            if not good:
                failures.append({"n": n, "identity": name})
        comp = poly_compose(kit.a, [0, 1, -1])
        num = poly_sub(poly_mul([1, -1], comp), [1])
        if normalize(num[:n - 1]) != [] or num != poly_shift(kit.h, n - 1):
            failures.append({"n": n, "identity": "truncation_divisibility"})
        for c, t in ((1, 2), (2, 3), (89, 13)):
            ft, gt = tilde_polys(n, c, t)
            if poly_compose(gt, [0, 1, -1]) != poly_mul(
                    ft, poly_compose(ft, [1, -1])):
                failures.append({"n": n, "identity": "product_split",
                                 "c": c, "t": t})
        if kit.k[0] != 1 or any(co <= 0 for co in kit.k):
            failures.append({"n": n, "identity": "positivity"})
        if kit.k != _series_oracle_k(n):
            failures.append({"n": n, "identity": "series_oracle"})
    pinned = (build_kit(4).k == [1, 2, 2] and build_kit(5).k == [1, 3, 5, 5])
    if not pinned:
        failures.append({"identity": "pinned_small_values"})
    return not failures, {"degrees": [4, 5, 6, 7, 8, 9, 10],
                          "failures": failures}


def check_certified_pairs():
    detail = {}
    try:
        monic = find_params(4, monic=True)
        general = find_params(4)
        detail["monic_params"] = [monic.p, monic.c, monic.t]
        detail["general_params"] = [general.p, general.c, general.t]
        ok = (monic.p == 11 and general.p == 11
              and monic.c == 1 and general.c == 89)
        for params in (monic, general):
            bundle = generate_certified_pair(4, params)
            key = "c%d" % params.c
            detail[key] = {
                "f": bundle["f"],
                "g": bundle["g"],
                "witness_det": det_bareiss(bundle["witness"]),
                "discriminant": str(bundle["discriminant"]),
                "properly_nonmonic": bundle["properly_nonmonic"],
            }
            ok = ok and detail[key]["witness_det"] in (1, -1)
        ok = ok and detail["c89"]["properly_nonmonic"] is True
        ok = ok and detail["c1"]["properly_nonmonic"] is None
    except (CertificateError, DomainError) as exc:
        return False, {"error": str(exc)}
    return ok, detail


def check_parametric_pairs():
    failures = []
    count = 0
    for kind, pairs in (("quartic", [quartic_pair(s, t)
                                     for s, t in quartic_samples(5)]),
                        ("quintic", [quintic_pair(s)
                                     for s in quintic_samples(5)])):
        for pair in pairs:
            count += 1
            f, g, u = pair["f"], pair["g"], pair["u"]
            n = len(u)
            label = {"family": kind, "s": pair["s"]}
            if det_bareiss(u) != 1:
                failures.append(dict(label, reason="printed matrix not "
                                                   "unimodular"))
                continue
            w = hermite_witness_check(f, g, pair["expr"])
            if w is None:
                failures.append(dict(label, reason="no lattice witness"))
                continue
            flipped = [[u[n - 1 - a][n - 1 - b] for b in range(n)]
                       for a in range(n)]
            if w != flipped:
                failures.append(dict(label, reason="witness differs from "
                                                   "printed matrix"))
            if discriminant(f) != discriminant(g):
                failures.append(dict(label, reason="discriminants differ"))
    return not failures, {"pairs": count, "failures": failures}


def check_reducible_pairs():
    detail = {}
    try:
        g, h, _, u = reducible_pair([1, -1, 0, 1])
        detail["g"] = g
        detail["h"] = h
        detail["witness_det"] = det_bareiss(u)
        ok = detail["witness_det"] in (1, -1)
    except (PreconditionError, DomainError) as exc:
        return False, {"error": str(exc)}
    try:
        reducible_pair([2, -1, 0, 1])
        detail["rejects_bad_constant"] = False
        ok = False
    except PreconditionError:
        detail["rejects_bad_constant"] = True
    return ok, detail


def check_bounds():
    failures = []
    if max_degree(1) != 3 or max_degree(1, monic=True) != 2:
        failures.append("unit discriminant caps")
    if max_degree(3981) != 18:
        failures.append("cap at 3981")
    table = {2: (1, 1), 3: (1, 10), 4: (10, 2760),
             5: (2 ** 125, 2 ** 125), 6: (2 ** 180, 2 ** 180)}
    for n, (general, mon) in table.items():
        if split_counts(n) != general or split_counts(n, monic=True) != mon:
            failures.append("split counts at n=%d" % n)
    for n in (3, 5):
        for monic in (False, True):
            vals = [coeff_bound_log(n, d, monic=monic)
                    for d in (2, 10, 1000, 10 ** 9)]
            if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
                failures.append("monotonicity n=%d monic=%s" % (n, monic))
    capped = 0
    for f in corpus_polys():
        d = discriminant(f)
        if d == 0:
            continue
        capped += 1
        if degree(f) > max_degree(abs(d)):
            failures.append({"f": f, "D": str(d)})
    return not failures, {"corpus_checked": capped, "failures": failures}


def check_cross_equivalence():
    rng = random.Random(SEEDS["cross_equivalence"])
    done = 0
    failures = []
    while done < 40:
        n = rng.randint(2, 5)
        f = [rng.randint(-8, 8) for _ in range(n)] + [1]
        if discriminant(f) == 0:
            continue
        e = rng.choice([1, -1])
        a = rng.randint(-3, 3)
        g = gl2_act(f, [[e, a], [0, 1]], sign=e ** n)
        w = z_equiv_test(f, g)
        if w is None:
            failures.append({"f": f, "reason": "no translation witness"})
            done += 1
            continue
        we, wa = w
        back = gl2_act(f, [[we, wa], [0, 1]], sign=we ** n)
        if back != g:
            failures.append({"f": f, "reason": "translation witness wrong"})
        u = hermite_witness_check(f, g, [-we * wa, we])
        if u is None or det_bareiss(u) not in (1, -1):
            failures.append({"f": f, "reason": "no lattice witness"})
        if discriminant(f) != discriminant(g):
            failures.append({"f": f, "reason": "discriminants differ"})
        done += 1
    return not failures, {"pairs": done, "failures": failures}


CHECKS = [
    (1, "content_identity", check_content_identity),
    (2, "discriminant_identity", check_disc_identities),
    (3, "gl2_transfer", check_gl2_transfer),
    (4, "ideal_laws", check_ideal_laws),
    (5, "norm_form_theorem", check_norm_form_theorem),
    (6, "table1_partition", check_table1),
    (7, "table2_partition", check_table2),
    (8, "table3_partition", check_table3),
    (9, "quartic_example", check_quartic_example),
    (10, "family_identities", check_family_identities),
    (11, "certified_pairs", check_certified_pairs),
    (12, "parametric_pairs", check_parametric_pairs),
    (13, "reducible_pairs", check_reducible_pairs),
    (14, "bounds", check_bounds),
    (15, "cross_equivalence", check_cross_equivalence),
]

_TABLE_CHECKS = {"table1_partition", "table2_partition", "table3_partition"}


def reproduce_all(table_dir=None, on_progress=None):
    """Run the whole battery; returns the deterministic report dict.

    table_dir, when given, overrides where the three table fixtures are
    loaded from (the packaged copies are used otherwise).  on_progress, a
    callable of (criterion, name, seconds), receives timing as each check
    finishes; timings stay out of the report so that it is reproducible
    byte for byte.
    """
    from . import __version__
    results = []
    for num, name, fn in CHECKS:
        start = time.monotonic()
        if name in _TABLE_CHECKS:
            ok, detail = fn(table_dir)
        else:
            ok, detail = fn()
        elapsed = time.monotonic() - start
        if on_progress is not None:
            on_progress(num, name, elapsed)
        results.append({"criterion": num, "name": name,
                        "ok": bool(ok), "detail": detail})
    return {
        "library": "hermeq",
        "version": __version__,
        "results": results,
        "all_ok": all(r["ok"] for r in results),
    }
