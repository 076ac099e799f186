import numpy as np
import pytest
from scipy.linalg import expm


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
