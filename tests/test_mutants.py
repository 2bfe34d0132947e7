import os

from mutants import MUTANTS, ROOT, mutated


def test_every_mutant_snippet_occurs_once_and_its_nodes_exist():
    # the cheap half of the mutation catalogue; the run itself is
    # `python tests/mutants.py`
    src = os.path.join(ROOT, "src")
    for name, mutant in MUTANTS.items():
        mutated(mutant, src)  # ValueError unless the snippet occurs once
        assert mutant.replacement != mutant.snippet, name
        for node in mutant.nodes:
            path, test = node.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert "def %s(" % test.split("[")[0] in fh.read(), node
