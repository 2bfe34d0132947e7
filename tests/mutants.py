"""Named mutations of src/hermeq and the tests that must catch them.

Each entry of MUTANTS holds a file under src/hermeq, a snippet that occurs
exactly once in it, the snippet's replacement, and the test node ids that
must fail once the replacement is made.  test_mutants.py checks, cheaply,
that every snippet still occurs exactly once, so the catalogue cannot rot
unseen.  The full run is on demand, from anywhere:

    python tests/mutants.py [name ...]

For each named mutation (all of them when none is named) it copies src/,
tests/ and pyproject.toml to a temporary directory, applies the mutation
there, runs only its nodes in one pytest process, and prints one table
row: caught when every node fails, missed otherwise.  Mutations run one
after another.  The exit status is 1 when any mutation is missed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "file snippet replacement nodes")

_SOLVE = ("tests/test_intmat.py::"
          "test_adjugate_solve_gives_det_and_adjugate_times_b")
_SHORTCUT = ("tests/test_algebra.py::"
             "test_kappa_search_reads_a_scalar_kappa_off_the_first_hnf_pivots")
_ORDER = ("tests/test_algebra.py::"
          "test_scaled_and_is_order_match_the_element_route")
_PIVOTS = ("Fraction(l1.hnf[0][0] * l2.denominator, "
           "l2.hnf[0][0] * l1.denominator)")
_FAMILY = ["tests/test_recheck.py::test_family_gen_rechecks_from_stdout"
           "[False-%d]" % n for n in (4, 5)]

MUTANTS = {
    # a row swap in the Bareiss pass leaves the determinant's sign alone
    "bareiss-swap-sign-unflipped": Mutant(
        "intmat.py", "sign = -sign", "sign = sign", [_SOLVE]),
    # back substitution drops the term U_{i,i+1} y_{i+1}
    "solve-backsub-term-dropped": Mutant(
        "intmat.py", "for j in range(i + 1, n):",
        "for j in range(i + 2, n):", [_SOLVE]),
    # the determinant of the 0 x 0 matrix is taken as 0, not 1
    "empty-determinant-zero": Mutant(
        "intmat.py", "    if n == 0:\n        return 1\n",
        "    if n == 0:\n        return 0\n",
        ["tests/test_intpoly.py::test_resultant_hand_cases"]),
    # the HNF keeps a negative pivot
    "hnf-negative-pivot-kept": Mutant(
        "intmat.py",
        "        if h[row][col] < 0:\n"
        "            h[row] = [-x for x in h[row]]\n", "",
        ["tests/test_intmat.py::test_hnf_hand_case",
         "tests/test_intmat.py::test_hnf_defining_properties_random"]),
    # integer rows over a negative denominator keep its sign
    "lowest-negative-den-kept": Mutant(
        "algebra.py", "    if den < 0:\n        g = -g\n", "",
        ["tests/test_algebra.py::"
         "test_equal_elements_from_different_inputs_are_equal"]),
    # kappa * L forgets the power table's scale
    "scaled-without-pow-scale": Mutant(
        "algebra.py", "kappa.den * self.denominator * a.pow_scale",
        "kappa.den * self.denominator", [_ORDER]),
    # is_order skips the closure test o * o = o
    "is-order-without-closure": Mutant(
        "algebra.py",
        "return o.contains(o.algebra.one()) and lattice_mul(o, o) == o",
        "return o.contains(o.algebra.one())", [_ORDER]),
    # the covolume divides by the denominator once, not to the n-th power
    "covolume-without-denominator-power": Mutant(
        "algebra.py", "self.denominator ** self.algebra.n)",
        "self.denominator)", [_SHORTCUT]),
    # the scalar shortcut returns kappa without confirming kappa l2 = l1
    "shortcut-unconfirmed": Mutant(
        "algebra.py", "if l2.scaled(kappa) == l1:\n            return kappa",
        "if True:\n            return kappa", [_SHORTCUT]),
    # the scalar shortcut forgets the lattices' denominators
    "shortcut-without-denominators": Mutant(
        "algebra.py", _PIVOTS, "Fraction(l1.hnf[0][0], l2.hnf[0][0])",
        [_SHORTCUT]),
    # the residue scan never tests the point (u, -t) of a pair
    "scan-without-e-minus-o": Mutant(
        "algebra.py", '+ ["v = (e - o)" + residue] + found("-" + t))', ")",
        ["tests/test_algebra.py::test_scan_matches_brute_force",
         "tests/test_algebra.py::"
         "test_compiled_evaluators_match_direct_evaluation"]),
    # the walk starts the zero prefix's block at u = 1, missing line u = 0
    "zero-prefix-from-u-1": Mutant(
        "algebra.py", "us = range(s + 1)", "us = range(1, s + 1)",
        ["tests/test_algebra.py::"
         "test_kappa_search_returns_the_first_hit_of_the_box"]),
    # the walk yields the residue scan's candidates without the exact check
    "scan-without-exact-check": Mutant(
        "algebra.py", "if value in (want, -want):", "if True:",
        ["tests/test_algebra.py::"
         "test_residue_scan_hit_list_matches_brute_force"]),
    # a minors weight loses the sign of its complementary column set
    "minors-weight-sign-dropped": Mutant(
        "forms.py",
        "                if (k * (k - 1) // 2 + sum(range(size)) - sum(comp))"
        " % 2:\n                    w = -w\n", "",
        ["tests/test_forms.py::"
         "test_laplace_minors_matches_cofactor_determinant"]),
    # _mul_add ignores its scale, so every term is added with weight 1
    "mul-add-without-scale": Mutant(
        "forms.py", "        x *= scale\n", "",
        ["tests/test_algebra.py::test_norm_form_quadratics"]),
    # is_squarefree takes a cofactor of 1 for a prime square, so an n that
    # trial division factors completely reads as not squarefree
    "squarefree-unit-cofactor-square": Mutant(
        "primes.py", "return m == 1 or isqrt(m) ** 2 != m",
        "return isqrt(m) ** 2 != m",
        ["tests/test_quartic.py::test_is_squarefree_matches_factorint"]),
    # the GL2 witness sign is flipped
    "witness-sign-flipped": Mutant(
        "equivalence.py", "return -1 if lead < 0 else 1",
        "return 1 if lead < 0 else -1",
        ["tests/test_recheck.py::"
         "test_check_gl2_rechecks_on_every_related_pair_of_a_table[%s]" % t
         for t in ("table1", "table2")]),
    # family_polys divides by c^n, not c^(n-1)
    "family-divisor-c-to-the-n": Mutant(
        "family.py", "scale = c ** (n - 1)", "scale = c ** n", _FAMILY),
    # tilde_polys takes T = c^n t, not c^(n-1) t
    "tilde-t-c-to-the-n": Mutant(
        "family.py", "big_t = c ** (n - 1) * t", "big_t = c ** n * t",
        _FAMILY),
}


def mutated(mutant, src):
    """The text of mutant.file under the directory src, mutated."""
    with open(os.path.join(src, "hermeq", mutant.file),
              encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.snippet) != 1:
        raise ValueError("snippet occurs %d times in %s"
                         % (text.count(mutant.snippet), mutant.file))
    return text.replace(mutant.snippet, mutant.replacement)


def survivors(mutant):
    """The nodes of mutant that still pass with it applied."""
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for d in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, d), os.path.join(tmp, d),
                            ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        text = mutated(mutant, os.path.join(tmp, "src"))
        with open(os.path.join(tmp, "src", "hermeq", mutant.file), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--tb=no", "-rfE", *mutant.nodes],
            cwd=tmp, env=env, capture_output=True, text=True)
    # a summary line is "FAILED <node> - ..." or "ERROR <node or file> ..."
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return [node for node in mutant.nodes
            if not any(node == f or node.startswith(f + "::")
                       for f in failed)]


def main(names):
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print("unknown mutation: %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    missed = 0
    print("| mutation | file | result |")
    print("|---|---|---|")
    for name in names or MUTANTS:
        mutant = MUTANTS[name]
        left = survivors(mutant)
        missed += bool(left)
        result = ("missed (%s still pass)" % ", ".join(left) if left
                  else "caught (%d/%d nodes fail)" % (len(mutant.nodes),
                                                       len(mutant.nodes)))
        print("| %s | %s | %s |" % (name, mutant.file, result), flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
