"""Logical-ordered basis, generalized Gell-Mann operators, transfer matrices.

The Gell-Mann set is orthonormalized, ``Tr[B_i B_j] = delta_ij``, and the
transfer matrix is ``Lambda_ij = Tr[B_i E(B_j)]``.  With this convention the
identity channel maps to the identity matrix and every entry of a unitary
channel's matrix lies in [-1, 1].
A channel is anything with ``dim`` and a stack-wise ``apply``.
"""

import io
import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ValidationError
from .fock import fock_state

PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)


@dataclass(frozen=True)
class OrderedBasis:
    """Orthonormal basis vectors as columns, logical pair first."""

    vectors: np.ndarray
    labels: tuple

    @property
    def dim(self):
        return self.vectors.shape[0]


def logical_ordered_basis(code):
    """Basis ordered as {|0_L>, |1_L>, (|0>-|4>)/sqrt(2), |1>, |3>, |5>, |6>, ...}.

    The first six vectors span Fock levels 0..5; the remaining columns are
    the bare Fock states |6>, |7>, ... so vector index k >= 6 sits at Fock
    level k.
    """
    d = code.dim
    if d < 6:
        raise ValidationError("ordered basis needs dim >= 6")
    cols = [code.zero_l, code.one_l, code.error_vec,
            fock_state(1, d), fock_state(3, d), fock_state(5, d)]
    labels = ["0L", "1L", "E", "f1", "f3", "f5"]
    for n in range(6, d):
        cols.append(fock_state(n, d))
        labels.append(f"f{n}")
    vectors = np.stack(cols, axis=1)
    gram = vectors.conj().T @ vectors
    if np.abs(gram - np.eye(d)).max() > 1e-12:
        raise NumericalConsistencyError("ordered basis is not orthonormal")
    return OrderedBasis(vectors, tuple(labels))


@dataclass(frozen=True)
class GellMannSet:
    """dim^2 orthonormal Hermitian matrices over an ordered basis.

    Element 0 is I/sqrt(dim); elements 1-3 are the logical-block X, Y, Z.
    ``supports`` records which ordered-basis vectors each element touches.
    """

    matrices: np.ndarray
    labels: tuple
    supports: tuple

    @property
    def dim(self):
        return self.matrices.shape[1]


def gellmann_set(basis):
    v = basis.vectors
    d = basis.dim
    outer = lambda k, l: np.outer(v[:, k], v[:, l].conj())

    sym, sym_lab, sym_sup = [], [], []
    asym, asym_lab, asym_sup = [], [], []
    for k in range(d):
        for l in range(k + 1, d):
            sym.append((outer(k, l) + outer(l, k)) / np.sqrt(2))
            sym_lab.append(f"sym({k},{l})")
            sym_sup.append((k, l))
            asym.append((-1j * outer(k, l) + 1j * outer(l, k)) / np.sqrt(2))
            asym_lab.append(f"asym({k},{l})")
            asym_sup.append((k, l))
    diag, diag_lab, diag_sup = [], [], []
    for m in range(1, d):
        mat = sum(outer(j, j) for j in range(m)) - m * outer(m, m)
        diag.append(mat / np.sqrt(m * (m + 1)))
        diag_lab.append(f"diag({m})")
        diag_sup.append(tuple(range(m + 1)))

    # logical-block X, Y, Z come first; the rest keep their family order
    mats = [np.eye(d, dtype=complex) / np.sqrt(d), sym[0], asym[0], diag[0]]
    labels = ["I", "X", "Y", "Z"]
    supports = [tuple(range(d)), (0, 1), (0, 1), (0, 1)]
    mats += sym[1:] + asym[1:] + diag[1:]
    labels += sym_lab[1:] + asym_lab[1:] + diag_lab[1:]
    supports += sym_sup[1:] + asym_sup[1:] + diag_sup[1:]
    return GellMannSet(np.stack(mats), tuple(labels), tuple(supports))


def display_indices(gm, n_vectors=6):
    """Indices of the elements supported on the first ``n_vectors`` vectors."""
    return [i for i, sup in enumerate(gm.supports)
            if i == 0 or max(sup) < n_vectors]


@dataclass(frozen=True)
class TransferMatrix:
    elements: np.ndarray
    labels: tuple

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["basis"] + list(self.labels))
        for label, row in zip(self.labels, self.elements):
            writer.writerow([label] + [repr(float(x)) for x in row])
        return buf.getvalue()


def transfer_matrix(channel, gm, rows=None):
    """Gell-Mann transfer matrix Lambda_ij = Tr[B_i E(B_j)].

    ``rows`` restricts both rows and columns to the given element indices
    (defaults to all dim^2).
    """
    d = gm.dim
    if channel.dim != d:
        raise ValidationError("channel and basis dims differ")
    idx = list(range(d * d)) if rows is None else list(rows)
    mats = gm.matrices[idx]
    outs = channel.apply(mats)
    # Tr[B_i^dag X] is the dot product of the flattened conj(B_i) and X
    lam = mats.reshape(len(idx), -1).conj() @ outs.reshape(len(idx), -1).T
    if np.abs(lam.imag).max() > 1e-8:
        raise NumericalConsistencyError("transfer matrix has imaginary residue")
    return TransferMatrix(lam.real, tuple(gm.labels[i] for i in idx))


def logical_ptm(channel, code):
    """4x4 transfer block over the trace-normalized logical {I_L, X, Y, Z}.

    Unlike the full transfer matrix (whose identity element spans the whole
    space), the first element here is I_L/sqrt(2), so the (0, 0) entry
    reads 1 - leakage rather than 1.
    """
    # B_j = sum_ab sigma_j[a, b] |c_a><c_b| / sqrt(2), all Hermitian
    ops = np.einsum("jab,abik->jik", PAULIS, code.units()) / np.sqrt(2)
    lam = np.einsum("iab,jba->ij", ops, channel.apply(ops)).real
    return TransferMatrix(lam, ("I", "X", "Y", "Z"))


def population_transfer_matrix(channel, basis, n_keep=6):
    """P_ij = <b_i| E(|b_j><b_j|) |b_i> over the first ``n_keep`` vectors."""
    if channel.dim != basis.dim:
        raise ValidationError("channel and basis dims differ")
    n_keep = min(n_keep, basis.dim)
    v = basis.vectors[:, :n_keep]
    outs = channel.apply(np.einsum("aj,bj->jab", v, v.conj()))
    p = np.einsum("ai,jab,bi->ij", v.conj(), outs, v).real
    return TransferMatrix(p, tuple(basis.labels[:n_keep]))
