"""Coherent-state quantum process tomography of bosonic logical gates.

``import csqpt`` loads no layer: each submodule, and each name re-exported
from one, is imported on first access (PEP 562), so a CLI command pays only
for the layers it runs.  A re-export is looked up in its submodule on every
access rather than stored here, so ``csqpt.X is csqpt.<module>.X`` holds
even after something rebinds the submodule attribute.
"""

import os

# CSQPT_THREADS caps the BLAS pool; must land in the environment before
# numpy is first imported, which is why it lives at the top of the package.
_threads = os.environ.get("CSQPT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import importlib

_SUBMODULES = (
    "basis", "channel", "errors", "fock", "gates", "metrics", "reconstruct",
    "tomography",
)
# Re-exported name -> submodule.  The fitting entry point stays namespaced
# (csqpt.reconstruct.reconstruct) so the submodule name is not shadowed by
# the function.
_EXPORTS = {
    **dict.fromkeys(("DecoherenceParams", "KrausSet", "choi_to_kraus",
                     "kraus_to_choi", "unitary_channel"), "channel"),
    **dict.fromkeys(("BinomialCode", "GateSequence", "SequenceChannel",
                     "ideal_logical_x", "ideal_logical_x_unitary",
                     "noisy_gate_process", "x_gate_sequence"), "gates"),
    **dict.fromkeys(("TomographyDataset", "load_dataset", "probe_grid",
                     "save_dataset", "simulate_dataset", "wigner_grid"),
                    "tomography"),
    **dict.fromkeys(("ReconstructionConfig", "load_result", "save_result"),
                    "reconstruct"),
    **dict.fromkeys(("avg_gate_fidelity", "decoder_study", "error_budget",
                     "process_fidelity_choi", "truncation_sweep"), "metrics"),
}

__all__ = [*_SUBMODULES, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
