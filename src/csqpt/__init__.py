"""Coherent-state quantum process tomography of bosonic logical gates.

``import csqpt`` loads no layer: each submodule is imported on first
access (PEP 562), so a CLI command pays only for the layers it runs.
Public names live in their submodule, as ``csqpt.<module>.<name>``.
"""

import os

# CSQPT_THREADS caps the BLAS pool; must land in the environment before
# numpy is first imported, which is why it lives at the top of the package.
_threads = os.environ.get("CSQPT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import importlib

__all__ = ["basis", "channel", "errors", "fock", "gates", "metrics", "reconstruct",
           "tomography"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
