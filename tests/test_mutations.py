"""The catalogue in ``mutations.py`` still matches the code it mutates.

Running the mutations takes a test run each, so the suite only checks
that every entry applies to exactly one place and names a test that
exists; ``python3 tests/mutations.py`` runs them.
"""

import pytest

from mutations import MUTATIONS, ROOT, apply


def test_mutation_names_are_unique():
    assert len({m.name for m in MUTATIONS}) == len(MUTATIONS)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_each_mutation_applies_to_exactly_one_place(mutation):
    text = (ROOT / mutation.file).read_text(encoding="utf-8")
    assert text.count(mutation.old) == 1
    assert apply(text, mutation) != text
    test_file, test_name = mutation.test.split("::")
    assert f"def {test_name}(" in (ROOT / test_file).read_text(
        encoding="utf-8")
