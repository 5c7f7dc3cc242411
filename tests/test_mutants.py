"""The kept mutants of tests/mutants.py still name code and tests that
exist: each old text occurs exactly once in its file, and each named test
is a function at the top level of its test module. Whether each mutant is
killed is run by `python tests/mutants.py`."""

from __future__ import annotations

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_a_mutant_names_code_and_tests_that_exist(mutant):
    text = (ROOT / "src" / "shopfloor" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        module = ast.parse((ROOT / path).read_text(encoding="utf-8"), path)
        functions = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
        assert name.startswith("test_") and name in functions, test_id
