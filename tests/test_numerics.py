import numpy as np
import pytest

from jointmm.errors import ConfigurationError, SingularConstraintError
from jointmm.numerics import (
    ALIGN_MIN_BYTES,
    SERIAL_MATMUL_WORK,
    aligned,
    apply,
    as_matrix,
    as_vector,
    matvec,
    operator_norm,
    serial_matmul,
    spd_factor,
    spd_solve_factored,
)

from oracles import address, jacobi_sigma_max, misaligned


def test_spd_solve_identity():
    zeta = spd_solve_factored(spd_factor(np.eye(2)), np.array([3.0, 4.0]))
    assert np.allclose(zeta, [3.0, 4.0])


def test_spd_solve_diagonal():
    S = np.diag([2.0, 4.0])
    assert np.allclose(spd_solve_factored(spd_factor(S), np.array([2.0, 4.0])), [1.0, 1.0])


def test_spd_solve_random_gram_residual(rng):
    A = rng.standard_normal((4, 7))
    B = rng.standard_normal((4, 9))
    S = A @ A.T + B @ B.T
    r = rng.standard_normal(4)
    zeta = spd_solve_factored(spd_factor(S), r)
    assert np.linalg.norm(S @ zeta - r) <= 1e-10 * (1.0 + np.linalg.norm(r))


def test_spd_solve_conditioned_roundtrip(rng):
    # random SPD with condition number <= 1e6
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        d = np.exp(rng.uniform(0, np.log(1e6), 6))
        S = (Q * d) @ Q.T
        r = rng.standard_normal(6)
        zeta = spd_solve_factored(spd_factor(S), r)
        assert np.linalg.norm(S @ zeta - r) <= 1e-10 * np.linalg.norm(r) * 10


def test_spd_solve_rejects_indefinite():
    S = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularConstraintError, match="full row rank"):
        spd_solve_factored(spd_factor(S), np.ones(2))


def test_spd_factor_cache_path(rng):
    A = rng.standard_normal((3, 5))
    S = A @ A.T + np.eye(3)
    L = spd_factor(S)
    r = rng.standard_normal(3)
    assert np.allclose(spd_solve_factored(L, r), np.linalg.solve(S, r))


def test_operator_norm_identity():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-8)


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-8)


def test_operator_norm_matches_jacobi_oracle(rng):
    M = rng.standard_normal((5, 3))
    assert operator_norm(M) == pytest.approx(jacobi_sigma_max(M), rel=1e-12)


def test_operator_norm_transpose_symmetry(rng):
    M = rng.standard_normal((6, 4))
    assert operator_norm(M) == pytest.approx(operator_norm(M.T.copy()), rel=1e-6)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_close_top_singular_values(rng):
    # sigma_1 - sigma_2 = 1e-6: an iterative estimate converges slowly here
    n = 50
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.9, 0.1, n - 2)])
    assert operator_norm((U * s) @ V.T) == pytest.approx(1.0, rel=1e-12)


def test_validators():
    with pytest.raises(ConfigurationError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        as_matrix(np.ones(3))
    with pytest.raises(ConfigurationError):
        as_vector(np.array([1.0, np.inf]))


@pytest.mark.parametrize("order", ["C", "F"])
def test_serial_matmul_matches_matmul_across_its_blocks(rng, order):
    # at 400 inner terms the blocks are 8 rows by 81 columns: 21 x 170 ends
    # in a short block both ways
    A = np.asarray(rng.standard_normal((21, 400)), order=order)
    B = np.asarray(rng.standard_normal((400, 170)), order=order)
    got = serial_matmul(A, B)
    assert got.shape == (21, 170) and got.flags.c_contiguous
    assert np.abs(got - A @ B).max() <= 1e-12 * np.abs(A @ B).max()
    # a product that fits in one block is the plain product, bit for bit
    assert np.array_equal(serial_matmul(B.T[:3], A.T), B.T[:3] @ A.T)


def test_apply_takes_a_point_or_a_batch_of_rows(rng):
    A = rng.standard_normal((170, 400))
    V = rng.standard_normal((21, 400))
    # a point is the plain product, bit for bit; a batch of rows is each
    # row's product, by serial_matmul
    assert np.array_equal(apply(A, V[3]), A @ V[3])
    got = apply(A, V)
    assert np.array_equal(got, serial_matmul(V, A.T))
    ref = np.array([A @ v for v in V])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_aligned_places_large_arrays_on_64_byte_boundaries():
    # from ALIGN_MIN_BYTES up, a C-contiguous float64 view of a buffer,
    # starting on a boundary; below it, a plain np.empty / np.zeros array
    # that owns its data (the alignment would cost small arrays more than it
    # saves: saddle-batch's per-block arrays)
    rows = ALIGN_MIN_BYTES // 8 // 16
    for shape in [(rows, 16), (65, 400), (883, 400), (ALIGN_MIN_BYTES // 8,)]:
        for make in (np.empty, np.zeros):
            a = aligned(shape, make)
            assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert address(a) % 64 == 0 and not a.flags.owndata
            assert make is np.empty or not a.any()
    for shape in [(rows - 1, 16), (65, 5), (0, 400), (3,)]:
        a = aligned(shape, np.zeros)
        assert a.shape == shape and a.flags.owndata and not a.any()
        assert aligned(shape).flags.owndata


@pytest.mark.parametrize("offset", [8, 16, 32, 48])
def test_serial_matmul_output_is_aligned_whatever_its_inputs(offset):
    A = misaligned(np.ones((883, 400)), offset)
    B = misaligned(np.ones((400, 64)), offset)
    assert A.shape[0] * 400 * 64 > SERIAL_MATMUL_WORK and 883 * 64 * 8 >= ALIGN_MIN_BYTES
    assert address(serial_matmul(A, B)) % 64 == 0
    assert address(serial_matmul(B.T, A.T)) % 64 == 0


@pytest.mark.parametrize("offset", [8, 16, 32, 48])
@pytest.mark.parametrize("d", [5, 130, 400])
def test_products_keep_their_bits_at_any_alignment(shift_aligned, d, offset):
    # inputs, and the outputs serial_matmul allocates, at offset bytes past
    # a 64-byte boundary give the bits of aligned ones; at d = 400 R is the
    # 883 x 400 residual map of linreg-400 and Z a block of 64 iterates
    rng = np.random.default_rng(d)
    M, R, Z = (rng.standard_normal(s) for s in [(d, d), (883, d), (65, d)])

    def products(offset):
        shift_aligned(offset)
        M_, R_, Z_ = (misaligned(a, offset) for a in (M, R, Z))
        return [serial_matmul(R_, Z_[:-1].T), serial_matmul(M_, M_), serial_matmul(Z_, M_.T),
                apply(M_, Z_), apply(M_, Z_[0]), matvec(M_)(Z_[0]), matvec(M_.T)(Z_[0])]

    want = [p.tobytes() for p in products(0)]
    assert [p.tobytes() for p in products(offset)] == want
