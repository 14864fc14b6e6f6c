import tracemalloc
import types

import pytest

from snspectra import characters, diagrams, permutations, yor


@pytest.fixture
def traced_peak():
    """Peak bytes held at once while a call runs, counted from its start:
    numpy reports its array buffers to tracemalloc."""

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


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
    """Fail the test if any irrep block is assembled."""

    def refuse(*args):
        raise AssertionError("a block was assembled")

    monkeypatch.setattr(yor, "hplus_matrix", refuse)


def refuse_partitions_of(monkeypatch, refused):
    """Fail the test if the diagrams of any n with refused(n) are listed,
    from any module of the package that lists diagrams."""
    partitions_of = diagrams.partitions_of

    def guarded(n):
        if refused(n):
            raise AssertionError(f"the partitions of {n} were listed")
        return partitions_of(n)

    for module in (diagrams, characters):
        monkeypatch.setattr(module, "partitions_of", guarded)


@pytest.fixture
def no_partitions_of_200(monkeypatch):
    refuse_partitions_of(monkeypatch, lambda n: n == 200)


@pytest.fixture
def no_partitions_past_40(monkeypatch):
    refuse_partitions_of(monkeypatch, lambda n: n > 40)
