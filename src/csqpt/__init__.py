"""Coherent-state quantum process tomography of bosonic logical gates."""

import os

# CSQPT_THREADS caps the BLAS pool; must land in the environment before
# numpy is first imported, which is why it lives at the top of the package.
_threads = os.environ.get("CSQPT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from . import basis, channel, errors, fock, gates, metrics, reconstruct, tomography
from .channel import (
    DecoherenceParams,
    KrausSet,
    choi_to_kraus,
    kraus_to_choi,
    unitary_channel,
)
from .gates import (
    BinomialCode,
    GateSequence,
    SequenceChannel,
    ideal_logical_x,
    ideal_logical_x_unitary,
    noisy_gate_process,
    x_gate_sequence,
)
from .tomography import (
    TomographyDataset,
    load_dataset,
    probe_grid,
    save_dataset,
    simulate_dataset,
    wigner_grid,
)
# the fitting entry point stays namespaced (csqpt.reconstruct.reconstruct)
# so the submodule name is not shadowed by the function
from .reconstruct import ReconstructionConfig, load_result, save_result
from .metrics import (
    avg_gate_fidelity,
    decoder_study,
    error_budget,
    process_fidelity_choi,
    truncation_sweep,
)

__version__ = "0.1.0"
