"""
The one numpy handle of the array modules, loaded on first attribute access.

The character route (Murnaghan-Nakayama, Lemmas 42/43, ``--method char``)
never touches an array, so a run that takes only that route never pays for
importing numpy.  Every other route loads it on its first array call.  A
missing numpy still fails at import time, naming numpy.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
