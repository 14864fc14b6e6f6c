import types

import pytest

from snspectra import permutations, yor


@pytest.fixture
def no_element_made(monkeypatch):
    """Fail the test if any connecting-set element is made: the enumerator
    draws every support and every cycle order from ``itertools``."""

    def refuse(*args):
        raise AssertionError("a connecting-set element was made")

    monkeypatch.setattr(
        permutations, "itertools", types.SimpleNamespace(combinations=refuse, permutations=refuse)
    )


@pytest.fixture
def no_block_assembled(monkeypatch):
    """Fail the test if any irrep block is assembled, by class sum or word walk."""

    def refuse(*args):
        raise AssertionError("a block was assembled")

    monkeypatch.setattr(yor, "_class_sum_matrix", refuse)
    monkeypatch.setattr(yor, "_word_walk_matrix", refuse)
