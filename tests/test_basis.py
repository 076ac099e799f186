import numpy as np
import pytest

from csqpt import basis, channel, gates
from csqpt.errors import ValidationError

np_rng = np.random.default_rng(90210)


def test_ordered_basis_first_six():
    code = gates.BinomialCode(8)
    ob = basis.logical_ordered_basis(code)
    v = ob.vectors
    s2 = 1 / np.sqrt(2)
    assert np.abs(v[:, 0] - np.array([0, 0, 1, 0, 0, 0, 0, 0])).max() < 1e-15
    assert np.abs(v[:, 1] - np.array([s2, 0, 0, 0, s2, 0, 0, 0])).max() < 1e-15
    assert np.abs(v[:, 2] - np.array([s2, 0, 0, 0, -s2, 0, 0, 0])).max() < 1e-15
    assert np.abs(v[:, 3] - np.array([0, 1, 0, 0, 0, 0, 0, 0])).max() < 1e-15
    assert np.abs(v[:, 4] - np.array([0, 0, 0, 1, 0, 0, 0, 0])).max() < 1e-15
    assert np.abs(v[:, 5] - np.array([0, 0, 0, 0, 0, 1, 0, 0])).max() < 1e-15
    assert ob.labels[:6] == ("0L", "1L", "E", "f1", "f3", "f5")
    assert np.abs(v[:, 7] - np.array([0, 0, 0, 0, 0, 0, 0, 1])).max() < 1e-15
    with pytest.raises(ValidationError):
        basis.logical_ordered_basis(gates.BinomialCode(5))


def test_gellmann_orthonormal_hermitian():
    code = gates.BinomialCode(7)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    mats = gm.elements(range(len(gm.labels)))
    assert mats.shape == (49, 7, 7)
    assert np.abs(mats - mats.conj().transpose(0, 2, 1)).max() < 1e-14
    gram = np.einsum("iab,jba->ij", mats, mats)
    assert np.abs(gram - np.eye(49)).max() < 1e-12
    # traceless except the identity element
    traces = np.einsum("iaa->i", mats)
    assert abs(traces[0] - np.sqrt(7)) < 1e-14
    assert np.abs(traces[1:]).max() < 1e-14


def test_gellmann_logical_block_elements():
    code = gates.BinomialCode(8)
    ob = basis.logical_ordered_basis(code)
    gm = basis.gellmann_set(ob)
    z, o = code.zero_l, code.one_l
    x_exp = (np.outer(z, o.conj()) + np.outer(o, z.conj())) / np.sqrt(2)
    y_exp = (-1j * np.outer(z, o.conj()) + 1j * np.outer(o, z.conj())) / np.sqrt(2)
    z_exp = (np.outer(z, z.conj()) - np.outer(o, o.conj())) / np.sqrt(2)
    assert gm.labels[:4] == ("I", "X", "Y", "Z")
    mats = gm.elements(range(len(gm.labels)))
    assert np.abs(mats[1] - x_exp).max() < 1e-14
    assert np.abs(mats[2] - y_exp).max() < 1e-14
    assert np.abs(mats[3] - z_exp).max() < 1e-14


def test_display_indices_cover_first_six_block():
    code = gates.BinomialCode(10)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    idx = basis.display_indices(gm, 6)
    # identity + 15 sym + 15 asym + 5 diag supported on the first 6 vectors
    assert len(idx) == 36
    assert idx[:4] == [0, 1, 2, 3]
    for i in idx[1:]:
        assert gm.keys[i, 1] < 6
    # labels for all 100 elements, in family order: sym, asym, diag
    pairs = [(k, l) for k in range(10) for l in range(k + 1, 10)][1:]
    assert gm.labels == (("I", "X", "Y", "Z")
                         + tuple(f"sym({k},{l})" for k, l in pairs)
                         + tuple(f"asym({k},{l})" for k, l in pairs)
                         + tuple(f"diag({m})" for m in range(2, 10)))
    # the rows-only build equals the same rows and columns of the full one
    ch = channel.random_channel(10, 3, np_rng)
    full = basis.transfer_matrix(ch, gm)
    sub = basis.transfer_matrix(ch, gm, rows=idx)
    assert np.abs(sub.elements - full.elements[np.ix_(idx, idx)]).max() <= 1e-12
    assert sub.labels == tuple(full.labels[i] for i in idx)


def test_transfer_matrix_identity_channel():
    code = gates.BinomialCode(8)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    ident = channel.unitary_channel(np.eye(8, dtype=complex))
    tm = basis.transfer_matrix(ident, gm)
    assert np.abs(tm.elements - np.eye(64)).max() < 1e-12


def test_transfer_matrix_against_direct_traces():
    # oracle: loop Tr[B_i E(B_j)] with E written out as the Kraus sum,
    # independent of channel.apply, which transfer_matrix is built on
    code = gates.BinomialCode(6)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    ch = channel.random_channel(6, 3, np_rng)
    tm = basis.transfer_matrix(ch, gm)
    mats = gm.elements(range(len(gm.labels)))
    direct = np.empty((36, 36))
    for j in range(36):
        out = sum(k @ mats[j] @ k.conj().T for k in ch.operators)
        for i in range(36):
            direct[i, j] = np.trace(mats[i] @ out).real
    assert np.abs(tm.elements - direct).max() < 1e-10


def test_transfer_matrix_ideal_x_block():
    code = gates.BinomialCode(16)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    ch = channel.unitary_channel(gates.ideal_logical_x_unitary(code))
    tm = basis.transfer_matrix(ch, gm, rows=[0, 1, 2, 3])
    assert np.abs(tm.elements - np.diag([1.0, 1.0, -1.0, -1.0])).max() < 1e-10
    assert tm.labels == ("I", "X", "Y", "Z")


def test_transfer_matrix_entries_bounded_for_unitary():
    code = gates.BinomialCode(12)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    u = gates.compose_unitary(gates.x_gate_sequence(), 12)
    tm = basis.transfer_matrix(channel.unitary_channel(u), gm)
    assert tm.elements.max() <= 1 + 1e-6
    assert tm.elements.min() >= -1 - 1e-6


def test_logical_ptm_identity_and_leakage():
    code = gates.BinomialCode(8)
    ident = channel.unitary_channel(np.eye(8, dtype=complex))
    tm = basis.logical_ptm(ident, code)
    assert np.abs(tm.elements - np.eye(4)).max() < 1e-12
    # swap |0_L> with the error vector: half the logical trace leaks out
    v = np.stack([code.zero_l, code.error_vec], axis=1)
    swap = (np.eye(8, dtype=complex) - v @ v.conj().T
            + np.outer(v[:, 0], v[:, 1].conj()) + np.outer(v[:, 1], v[:, 0].conj()))
    tm = basis.logical_ptm(channel.unitary_channel(swap), code)
    assert abs(tm.elements[0, 0] - 0.5) < 1e-12


def test_logical_ptm_matches_full_gtm_on_traceless_block():
    # X, Y, Z rows/cols of the full GTM coincide with the logical PTM ones
    code = gates.BinomialCode(16)
    gm = basis.gellmann_set(basis.logical_ordered_basis(code))
    ch = channel.unitary_channel(gates.compose_unitary(gates.x_gate_sequence(), 16))
    full = basis.transfer_matrix(ch, gm, rows=[1, 2, 3])
    ptm = basis.logical_ptm(ch, code)
    assert np.abs(full.elements - ptm.elements[1:, 1:]).max() < 1e-10


def test_population_transfer_matrix_permutation():
    code = gates.BinomialCode(8)
    ob = basis.logical_ordered_basis(code)
    ch = channel.unitary_channel(gates.ideal_logical_x_unitary(code))
    p = basis.population_transfer_matrix(ch, ob, n_keep=6)
    expected = np.eye(6)
    expected[:2, :2] = [[0, 1], [1, 0]]
    assert np.abs(p.elements - expected).max() < 1e-12
    assert p.labels == ("0L", "1L", "E", "f1", "f3", "f5")


def test_population_columns_sum_to_one_when_full():
    ch = channel.random_channel(6, 2, np_rng)
    code = gates.BinomialCode(6)
    ob = basis.logical_ordered_basis(code)
    p = basis.population_transfer_matrix(ch, ob, n_keep=6)
    assert np.abs(p.elements.sum(axis=0) - 1).max() < 1e-10
    assert p.elements.min() >= -1e-12


def test_transfer_matrix_csv():
    code = gates.BinomialCode(8)
    ident = channel.unitary_channel(np.eye(8, dtype=complex))
    tm = basis.logical_ptm(ident, code)
    text = tm.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "basis,I,X,Y,Z"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "I"
    assert abs(float(first[1]) - 1.0) < 1e-12
