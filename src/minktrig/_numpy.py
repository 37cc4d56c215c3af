"""numpy, loaded on first use.

``np`` is numpy itself when it is already imported.  Otherwise it is a lazy
module, registered as ``sys.modules["numpy"]``, that executes numpy on its
first attribute access (the ``importlib.util.LazyLoader`` recipe), so an
import of minktrig, and a command that runs no array code, never pays for it.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:  # fail at import, as a plain import of numpy would
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
