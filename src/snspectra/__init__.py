"""Cayley graph spectra of symmetric and alternating groups for cycle-type
connecting sets: exact characters, explicit orthogonal representations,
dense/natural-module/quotient spectra, and theorem verification runs."""

from .permutations import (
    ConnectingSetSpec,
    full_cycles,
    generated_subgroup_kind,
    parse_spec,
    prefix_moving_cycles,
)
from .diagrams import dimension, partitions_of, transpose
from .characters import max_ratio_diagram, mn_character
from .graphs import CayleyGraph, build, dense_spectrum, natural_module_spectrum
from .eigen import SpectrumReport
from .equitable import quotient_B1, quotient_B2

# The yor exports load Young's orthogonal form on first access, so a run that
# takes neither the irrep nor the char route never imports it.
_YOR_EXPORTS = (
    "full_spectrum_via_irreps",
    "hplus_block_spectrum",
)


def __getattr__(name: str):
    if name in _YOR_EXPORTS:
        from . import yor

        return getattr(yor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CayleyGraph",
    "ConnectingSetSpec",
    "SpectrumReport",
    "build",
    "dense_spectrum",
    "dimension",
    "full_cycles",
    "full_spectrum_via_irreps",
    "generated_subgroup_kind",
    "hplus_block_spectrum",
    "max_ratio_diagram",
    "mn_character",
    "natural_module_spectrum",
    "parse_spec",
    "partitions_of",
    "prefix_moving_cycles",
    "quotient_B1",
    "quotient_B2",
    "transpose",
]
