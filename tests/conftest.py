import os

import numpy as np
import pytest
from scipy.linalg import expm

# pyproject's pytest ``pythonpath`` puts src/ on this process's sys.path
# only; the tests that start ``python -m csqpt`` or ``python -c`` need it in
# the environment they pass on, so an uninstalled checkout runs them too
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def lindblad_expm():
    """Reference exp(t L) of the cavity Lindbladian, assembled from ``kron``
    products on column-vec(rho) and exponentiated with scipy: an oracle that
    shares no code with ``channel.decay``."""

    def build(params, duration, dim):
        a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
        num = a.conj().T @ a
        ident = np.eye(dim)
        lind = np.zeros((dim * dim, dim * dim), dtype=complex)
        for c in (np.sqrt(params.loss_rate) * a,
                  np.sqrt(2.0 * params.dephasing_rate) * num):
            cdc = c.conj().T @ c
            lind += np.kron(c.conj(), c)
            lind -= 0.5 * np.kron(ident, cdc)
            lind -= 0.5 * np.kron(cdc.T, ident)
        return expm(duration * lind)

    return build
