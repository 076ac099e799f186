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

from .errors import NumericalConsistencyError, read_instance, read_int, read_numbers
from .fock import fock_state
from .gates import BinomialCode

# the logical pair, the error vector and |1>, |3>, |5>: the ordered basis's
# first vectors, spanning Fock levels 0..5, and the block analyze displays
DISPLAY = 6

PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)


@dataclass(frozen=True, eq=False)
class OrderedBasis:
    """Orthonormal basis vectors as columns, logical pair first."""

    vectors: np.ndarray
    labels: tuple

    @property
    def dim(self):
        return self.vectors.shape[0]


def logical_ordered_basis(code):
    """Basis ordered as {|0_L>, |1_L>, (|0>-|4>)/sqrt(2), |1>, |3>, |5>, |6>, ...}.

    The first ``DISPLAY`` (six) vectors span Fock levels 0..5; the remaining
    columns are the bare Fock states |6>, |7>, ... so vector index k >= 6
    sits at Fock level k.
    """
    d = read_int(read_instance(code, BinomialCode, "code").dim, "ordered basis dim",
                 DISPLAY)
    cols = [code.zero_l, code.one_l, code.error_vec,
            fock_state(1, d), fock_state(3, d), fock_state(5, d)]
    labels = ["0L", "1L", "E", "f1", "f3", "f5"]
    for n in range(DISPLAY, d):
        cols.append(fock_state(n, d))
        labels.append(f"f{n}")
    vectors = np.stack(cols, axis=1)
    gram = vectors.conj().T @ vectors
    if np.abs(gram - np.eye(d)).max() > 1e-12:
        raise NumericalConsistencyError("ordered basis is not orthonormal")
    return OrderedBasis(vectors, tuple(labels))


@dataclass(frozen=True, eq=False)
class GellMannSet:
    """dim^2 orthonormal Hermitian matrices over an ordered basis.

    Element 0 is I/sqrt(dim); elements 1-3 are the logical-block X, Y, Z.
    Element i is V C V^dag for the basis vectors V (columns) and a
    coefficient matrix C given by ``keys[i] = (k, l)`` and ``phases[i]``:
    phase/sqrt(2) at C[k, l] and its conjugate at C[l, k] when k < l
    (phase 1 for sym, -1j for asym); diag(1, ..., 1, -m, 0, ...) over
    sqrt(m(m+1)) when k = l = m > 0; I/sqrt(dim) when k = l = 0, so element
    i > 0 touches ordered-basis vectors 0 to ``keys[i, 1]`` at most.  Labels
    and keys cover every element, but ``elements`` builds only the
    matrices asked for.
    """

    vectors: np.ndarray
    labels: tuple
    keys: np.ndarray
    phases: np.ndarray

    @property
    def dim(self):
        return self.vectors.shape[0]

    def elements(self, idx):
        """The (len(idx), dim, dim) stack of elements ``idx``."""
        idx = np.asarray(idx, dtype=np.intp).reshape(-1)
        d = self.dim
        k, l = self.keys[idx].T
        c = np.zeros((idx.size, d, d), dtype=complex)
        off = np.flatnonzero(k < l)
        c[off, k[off], l[off]] = self.phases[idx[off]] / np.sqrt(2)
        c[off, l[off], k[off]] = self.phases[idx[off]].conj() / np.sqrt(2)
        on = np.flatnonzero(k == l)
        m, j = k[on, None], np.arange(d)
        c[on[:, None], j, j] = np.where(
            m == 0, 1 / np.sqrt(d),
            ((j < m) - m * (j == m)) / np.sqrt(np.maximum(m * (m + 1), 1)),
        )
        return self.vectors @ c @ self.vectors.conj().T


def gellmann_set(basis):
    d = read_instance(basis, OrderedBasis, "basis").dim
    # logical-block X, Y, Z come first; the rest keep their family order:
    # sym(k, l) and asym(k, l) over the row-major pairs k < l, then diag(m)
    pairs = np.stack(np.triu_indices(d, 1), axis=1)[1:]
    diag = np.arange(2, d)
    keys = np.concatenate([[[0, 0], [0, 1], [0, 1], [1, 1]], pairs, pairs,
                           np.stack([diag, diag], axis=1)])
    phases = np.concatenate([[1, 1, -1j, 1], np.ones(len(pairs)),
                             np.full(len(pairs), -1j), np.ones(diag.size)])
    pairs, diag = pairs.tolist(), diag.tolist()
    labels = (("I", "X", "Y", "Z")
              + tuple(f"sym({k},{l})" for k, l in pairs)
              + tuple(f"asym({k},{l})" for k, l in pairs)
              + tuple(f"diag({m})" for m in diag))
    return GellMannSet(basis.vectors, labels, keys, phases)


def display_indices(gm):
    """Indices of the elements supported on the first ``DISPLAY`` vectors."""
    return [i for i in range(len(gm.labels)) if i == 0 or gm.keys[i, 1] < DISPLAY]


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    elements: np.ndarray
    labels: tuple

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["basis"] + list(self.labels))
        for label, row in zip(self.labels, self.elements):
            writer.writerow([label] + [repr(float(x)) for x in row])
        return buf.getvalue()


def transfer_matrix(channel, gm, rows=None):
    """Gell-Mann transfer matrix Lambda_ij = Tr[B_i E(B_j)].

    ``rows`` restricts both rows and columns to the given element indices,
    a flat list of integers in [0, dim^2) (defaults to all dim^2).
    """
    d = gm.dim
    idx = list(range(d * d)) if rows is None else [
        read_int(i, "row", 0, high=d * d - 1)
        for i in read_numbers(rows, "rows", shape=(None,)).tolist()]
    mats = gm.elements(idx)
    outs = channel.apply(mats)
    # Tr[B_i^dag X] is the dot product of the flattened conj(B_i) and X
    lam = mats.reshape(len(idx), d * d).conj() @ outs.reshape(len(idx), d * d).T
    if np.abs(lam.imag).max(initial=0.0) > 1e-8:
        raise NumericalConsistencyError("transfer matrix has imaginary residue")
    return TransferMatrix(lam.real, tuple(gm.labels[i] for i in idx))


def logical_ptm(channel, code):
    """4x4 transfer block over the trace-normalized logical {I_L, X, Y, Z}.

    Unlike the full transfer matrix (whose identity element spans the whole
    space), the first element here is I_L/sqrt(2), so the (0, 0) entry
    reads 1 - leakage rather than 1.
    """
    units = code.units()
    return logical_ptm_of_images(units, channel.apply(units))


def logical_ptm_of_images(units, images):
    """``logical_ptm`` from the code units |c_a><c_b| and their images."""
    # ops_j = sqrt(2) B_j = sum_ab sigma_j[a, b] |c_a><c_b|, all Hermitian,
    # and outs_j = sqrt(2) E(B_j), the same sum of the images by linearity
    ops, outs = (np.einsum("jab,abik->jik", PAULIS, x) for x in (units, images))
    lam = np.einsum("iab,jba->ij", ops, outs).real / 2
    return TransferMatrix(lam, ("I", "X", "Y", "Z"))


def population_transfer_matrix(channel, basis):
    """P_ij = <b_i| E(|b_j><b_j|) |b_i> over the first ``DISPLAY`` vectors."""
    v = read_instance(basis, OrderedBasis, "basis").vectors[:, :DISPLAY]
    outs = channel.apply(np.einsum("aj,bj->jab", v, v.conj()))
    p = np.einsum("ai,jab,bi->ij", v.conj(), outs, v).real
    return TransferMatrix(p, tuple(basis.labels[:DISPLAY]))
