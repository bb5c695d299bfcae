import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.io
import scipy.sparse
from scipy.sparse import _sparsetools

import mpcg.sparse as sparse_module
from mpcg.cli import main as cli_main
from mpcg.dataset import FAMILIES, GraphSpec, generate
from mpcg.errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    DuplicateEntryError,
    MatrixMarketParseError,
    MissingDiagonalError,
    PrecisionMismatchError,
    SinglePrecisionOverflowError,
)
from mpcg.sparse import (
    SparseSymMatrix,
    _scipy_csr,
    downcast,
    downcast_vector,
    from_coordinates,
    read_matrix_market,
    spmv,
    upcast_vector,
    write_matrix_market,
)

from oracles import (
    dd_spd_triplets,
    from_coordinates_reference,
    from_triplets,
    inorder_matvec,
    write_matrix_market_reference,
)


MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


MM_BODY = ["1 1 4.0", "2 1 -1.5", "2 2 4.0", "3 2 0.5", "3 3 4.0"]
LENIENT_TOKENS = ["1.2.3", "1e5e3", "1-2", "1e", "1e+", "1..2", "1ee2", "2_0", "0x10", "2.0x"]
MALFORMED = ("line 4: malformed entry", 4)
OUT_OF_RANGE = ("line 4: index out of range", 4)
NOT_FINITE = ("line 4: value is not finite", 4)
MM_ARRAYS = (  # the CSR arrays of the file mm_text(MM_BODY)
    np.array([0, 2, 5, 7], dtype=np.int32),
    np.array([0, 1, 0, 1, 2, 1, 2], dtype=np.int32),
    np.array([4.0, -1.5, -1.5, 4.0, 0.5, 0.5, 4.0]),
)


def mm_text(entries, size="3 3 5", sep="\n", end="\n"):
    return MM_HEADER + size + "\n" + sep.join(entries) + end


def entry_at(k, line):
    """``MM_BODY`` with entry ``k`` (file line ``k + 3``) replaced."""
    return MM_BODY[:k] + [line] + MM_BODY[k + 1:]


# Files next to the strict grammar, each with the outcome of the np.loadtxt
# path: None for the arrays of mm_text(MM_BODY), else (message, line).
STRICTNESS_CASES = [
    *(pytest.param(mm_text(entry_at(1, f"2 1 {tok}")), MALFORMED, id=f"value {tok}")
      for tok in LENIENT_TOKENS),
    *(pytest.param(mm_text(entry_at(1, f"{tok} 1 -1.5")), MALFORMED, id=f"row {tok}")
      for tok in LENIENT_TOKENS),
    pytest.param(mm_text(entry_at(1, "2 1 -1.5 5")), ("line 4: entry needs 'row col value'", 4),
                 id="fourth column"),
    pytest.param(mm_text(["1 1 4.0", "2 1 -1.5 2 2 4.0"] + MM_BODY[3:]),
                 ("line 4: entry needs 'row col value'", 4), id="two entries on a line"),
    pytest.param(mm_text(entry_at(0, "+1 1 4.0")), None, id="plus index"),
    *(pytest.param(mm_text(entry_at(1, f"2 1 {tok}")), NOT_FINITE, id=f"value {tok}")
      for tok in ["nan", "inf", "-inf", "1e400"]),
    *(pytest.param(mm_text(entry_at(1, line)), OUT_OF_RANGE, id=f"index {line}")
      for line in ["0 1 -1.5", "2 0 -1.5", "4 1 -1.5", "2 4 -1.5",
                   "99999999999 1 -1.5", "2 99999999999 -1.5"]),
    pytest.param(mm_text(MM_BODY, sep="\r\n", end="\r\n"), None, id="crlf"),
    pytest.param(mm_text(MM_BODY).replace("\n", "\r"), None, id="cr"),
    pytest.param(mm_text([line.replace(" ", "\t") for line in MM_BODY]), None, id="tabs"),
    pytest.param(mm_text(entry_at(1, "2 1 -1.5 ")), None, id="trailing space"),
    pytest.param(mm_text(MM_BODY, end=""), None, id="no final newline"),
    pytest.param(mm_text(MM_BODY[:2] + ["% note"] + MM_BODY[2:]), None, id="body comment"),
    pytest.param(mm_text(MM_BODY[:2] + ["", " \t "] + MM_BODY[2:]), None, id="blank lines"),
    pytest.param(mm_text(MM_BODY[:-1]), ("line 7: expected 5 entries, found 4", 7),
                 id="one entry fewer"),
    pytest.param(mm_text(MM_BODY + ["3 1 2.0"]),
                 ("line 8: more entries than the size line declares", 8), id="one entry more"),
]


def read_outcome(path):
    """The three CSR arrays ``read_matrix_market`` returns, or its error's
    type, text and line number."""
    try:
        A = read_matrix_market(path)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return A.row_starts, A.col_indices, A.values


def refuse_loadtxt(lines):
    raise AssertionError("the np.loadtxt path ran")


def without_fast_path(*args):
    return None


# Values next to the ends of each precision: subnormals, both zeros, the largest.
EXTREME_VALUES = {
    np.float64: [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                 -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300],
    np.float32: [1.401298464324817e-45, -1.401298464324817e-45, 1.1754942106924411e-38,
                 1.1754943508222875e-38, -0.0, 0.0, 3.4028234663852886e38,
                 -3.4028234663852886e38, 9.99994610111476e-41],
}


@st.composite
def extreme_matrices(draw, dtype):
    """Symmetric matrices of ``dtype`` with a full diagonal, values drawn
    from all finite floats of that precision and from its ``EXTREME_VALUES``."""
    n = draw(st.integers(1, 8))
    width = np.finfo(dtype).bits
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=width),
                      st.sampled_from(EXTREME_VALUES[dtype]))
    upper = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=2 * n,
    ))
    trips = [(i, i, draw(value)) for i in range(n)]
    for i, j in sorted(upper):
        v = draw(value)
        trips += [(i, j, v), (j, i, v)]
    return from_triplets(trips, n, dtype=dtype)



def identity(n, dtype=np.float64):
    return from_triplets([(i, i, 1.0) for i in range(n)], n, dtype=dtype)


def traced_peak_mb(call) -> float:
    """Peak traced allocation of ``call()``, in MB; ``call`` must raise
    MissingDiagonalError."""
    tracemalloc.start()
    try:
        with pytest.raises(MissingDiagonalError, match="every row needs an explicit diagonal"):
            call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestFromCoordinates:
    def test_one_by_one_identity(self):
        for A in (from_triplets([(0, 0, 1.0)], 1), from_coordinates([0], [0], [1.0], 1)):
            assert A.n == 1 and A.nnz == 1
            assert A.values[0] == 1.0

    def test_no_triplet_rejected(self):
        with pytest.raises(ValueError, match="at least one triplet is required"):
            from_triplets([], 1)

    def test_symmetric_pair_accepted(self):
        A = from_triplets([(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 2)], 2)
        assert A.nnz == 4
        np.testing.assert_array_equal(A.row_starts, [0, 2, 4])
        np.testing.assert_array_equal(A.col_indices, [0, 1, 0, 1])

    def test_mismatched_mirror_value_rejected(self):
        with pytest.raises(AsymmetricInputError):
            from_triplets([(0, 1, 1.0), (1, 0, 2.0)], 2)

    def test_missing_mirror_rejected(self):
        with pytest.raises(AsymmetricInputError):
            from_triplets([(0, 0, 1.0), (1, 1, 1.0), (0, 1, 1.0)], 2)

    def test_missing_diagonal_rejected(self):
        with pytest.raises(MissingDiagonalError):
            from_triplets([(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)], 2)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEntryError):
            from_triplets([(0, 0, 1.0), (0, 0, 2.0)], 1)

    def test_fewer_entries_than_rows_fail_before_any_array_of_n(self):
        # Row starts alone would take 8 MB; one entry cannot fill a diagonal.
        assert traced_peak_mb(lambda: from_triplets([(0, 0, 1.0)], 2_000_000)) < 1
        # The count is of mirrored entries: mirrored, one entry makes two
        # for two rows, which reach the value check.
        with pytest.raises(MissingDiagonalError):
            from_triplets([(0, 1, np.nan)], 2)
        with pytest.raises(ValueError, match="not finite"):
            from_triplets([(0, 1, np.nan)], 2, mirror=True)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            from_triplets([(0, 5, 1.0), (0, 0, 1.0)], 2)

    def test_mirror_flag_builds_both_halves(self):
        A = from_triplets([(0, 0, 2.0), (1, 1, 2.0), (0, 1, 1.0)], 2, mirror=True)
        B = from_triplets([(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 2)], 2)
        np.testing.assert_array_equal(A.col_indices, B.col_indices)
        np.testing.assert_array_equal(A.values, B.values)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, bad, dtype):
        triplets = [(0, 0, 2.0), (0, 1, bad), (1, 0, bad), (1, 1, 2.0)]
        with pytest.raises(ValueError, match=r"\(0, 1\) is not finite"):
            from_triplets(triplets, 2, dtype=dtype)
        with pytest.raises(ValueError, match=r"\(0, 1\) is not finite"):
            from_triplets(triplets[:2] + triplets[3:], 2, mirror=True, dtype=dtype)

    def test_first_non_finite_value_is_named(self):
        with pytest.raises(ValueError, match=r"\(0, 0\) is not finite"):
            from_triplets([(0, 0, np.inf), (1, 1, np.nan)], 2)
        with pytest.raises(ValueError, match=r"\(1, 1\) is not finite"):
            from_triplets([(0, 0, 1.0), (1, 1, np.nan), (2, 2, np.inf)], 3)

    def test_non_finite_value_rejected_from_arrays(self):
        rows, cols = np.array([0, 1, 2]), np.array([0, 1, 2])
        vals = np.array([1.0, 1.0, -np.inf])
        with pytest.raises(ValueError, match=r"\(2, 2\) is not finite"):
            from_coordinates(rows, cols, vals, 3, False)

    def test_numpy_integer_indices_accepted(self):
        # Shuffled entries of [[2, 1], [1, 3]] build the arrays that
        # SparseSymMatrix keeps of its CSR, values in their own dtype.
        for index in (np.int32, np.int64, np.intp, np.uint8, np.int16):
            for dtype in (np.float32, np.float64):
                rows = np.array([1, 0, 1, 0], dtype=index)
                cols = np.array([1, 1, 0, 0], dtype=index)
                A = from_coordinates(rows, cols, np.array([3, 1, 1, 2], dtype=dtype), 2)
                B = SparseSymMatrix([0, 2, 4], [0, 1, 0, 1], np.array([2, 1, 1, 3], dtype=dtype))
                assert A.values.dtype == dtype
                for got, want in zip((A.row_starts, A.col_indices, A.values),
                                     (B.row_starts, B.col_indices, B.values)):
                    assert same_bytes(got, want)

    @pytest.mark.parametrize("float_rows", [True, False])
    def test_float_index_arrays_rejected(self, float_rows):
        ints, floats = np.array([0, 1]), np.array([0.0, 1.0])
        rows, cols = (floats, ints) if float_rows else (ints, floats)
        with pytest.raises(TypeError, match="indices must be integers"):
            from_coordinates(rows, cols, np.ones(2), 2, False)

    def test_index_arrays_of_other_lengths_rejected(self):
        ints = np.array([0, 1])
        for rows, cols, vals in [(ints, ints[:1], np.ones(2)), (ints, ints, np.ones(3)),
                                 (ints[None], ints[None], np.ones((1, 2)))]:
            with pytest.raises(ValueError, match="vectors of one length"):
                from_coordinates(rows, cols, vals, 2, False)

    def test_non_finite_value_rejected_by_constructor(self):
        with pytest.raises(ValueError, match=r"\(1, 1\) is not finite"):
            SparseSymMatrix([0, 1, 2], [0, 1], [1.0, np.nan])

    def test_repeated_position_named_by_constructor(self):
        # row 2 holds column 1 twice
        with pytest.raises(DuplicateEntryError, match=r"position \(2, 1\) appears twice"):
            SparseSymMatrix([0, 1, 3, 6], [0, 1, 2, 1, 1, 2], np.ones(6))

    def test_arrays_are_frozen(self):
        A = identity(3)
        with pytest.raises(ValueError):
            A.values[0] = 5.0


class TestOneCopy:
    """A matrix holds one CSR structure, shared by its binary32 copy."""

    @staticmethod
    def matrix():
        return from_triplets(dd_spd_triplets(40, np.random.default_rng(5)), 40)

    def test_attributes_are_the_csr_arrays(self):
        A = self.matrix()
        assert SparseSymMatrix.__slots__ == ("row_starts", "col_indices", "values")
        assert A.row_starts.dtype == A.col_indices.dtype == np.int32
        csr = _scipy_csr(A)  # scipy's view of the same arrays
        owned = (A.row_starts, A.col_indices, A.values)
        for got, own in zip((csr.indptr, csr.indices, csr.data), owned):
            assert np.shares_memory(got, own) and same_bytes(got, own)

    def test_downcast_shares_the_structure(self):
        A = self.matrix()
        R = downcast(A)
        assert R.row_starts is A.row_starts
        assert R.col_indices is A.col_indices
        assert not np.shares_memory(R.values, A.values)

    def test_downcast_builds_no_scipy_matrix(self, monkeypatch):
        A = self.matrix()

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.sparse.csr_matrix built")

        monkeypatch.setattr(scipy.sparse.csr_matrix, "__init__", refuse)
        R = downcast(A)
        assert R.row_starts is A.row_starts and R.col_indices is A.col_indices
        assert same_bytes(R.values, A.values.astype(np.float32))
        with pytest.raises(AssertionError, match="csr_matrix built"):
            _scipy_csr(A)  # the patch holds

    def test_entries_past_the_last_row_start_are_rejected(self):
        # scipy alone would drop the trailing entry without a word
        with pytest.raises(ValueError, match="nondecreasing"):
            SparseSymMatrix([0, 1, 2], [0, 1, 1], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("name", ["row_starts", "col_indices", "values"])
    def test_arrays_reject_writes(self, name):
        A = self.matrix()
        for M in (A, downcast(A)):
            with pytest.raises(ValueError, match="read-only"):
                getattr(M, name)[0] = 1


class TestConstructorChecks:
    """The checks ``SparseSymMatrix`` makes of CSR arrays that it is given."""

    def test_empty_row_has_no_diagonal(self):
        with pytest.raises(MissingDiagonalError):
            SparseSymMatrix([0, 1, 1], [0], [1.0])

    def test_row_that_skips_the_diagonal(self):
        # row 1 holds (1, 0) and (1, 2); the structure is symmetric
        with pytest.raises(MissingDiagonalError):
            SparseSymMatrix([0, 2, 4, 6], [0, 1, 0, 2, 1, 2], np.ones(6))

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="column indices not sorted within a row"):
            SparseSymMatrix([0, 2, 4], [1, 0, 0, 1], np.ones(4))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix dimension must be at least 1"):
            SparseSymMatrix([0], np.array([], dtype=np.int32), np.array([]))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(IndexError, match="column index out of range"):
            SparseSymMatrix([0, 1, 2], [0, 2], [1.0, 1.0])

    def test_integer_values_become_binary64(self):
        A = SparseSymMatrix([0, 1, 2], [0, 1], np.array([1, 2]))
        B = from_coordinates(np.array([0, 1]), np.array([0, 1]), np.array([1, 2]),
                                       2, False)
        for M in (A, B):
            assert M.dtype == np.float64
            np.testing.assert_array_equal(M.values, [1.0, 2.0])


class TestSpmv:
    def test_identity(self):
        A = identity(3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(spmv(A, x), x)

    def test_hand_arithmetic(self):
        A = from_triplets([(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 2)], 2)
        np.testing.assert_array_equal(A @ np.ones(2), [3.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_inorder_oracle_binary64(self, seed):
        rng = np.random.default_rng(seed)
        trips = dd_spd_triplets(50, rng, density=0.15, signed=True)
        A = from_triplets(trips, 50)
        x = rng.standard_normal(50)
        got = spmv(A, x)
        want = inorder_matvec(trips, 50, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_inorder_oracle_binary32(self, seed):
        rng = np.random.default_rng(100 + seed)
        trips = dd_spd_triplets(50, rng, density=0.15, signed=True)
        A32 = downcast(from_triplets(trips, 50))
        x = rng.standard_normal(50).astype(np.float32)
        got = spmv(A32, x)
        want = inorder_matvec(trips, 50, x)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spmv(identity(3), np.ones(4))

    def test_precision_mismatch(self):
        with pytest.raises(PrecisionMismatchError):
            spmv(identity(3), np.ones(3, dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_symmetry_inner_product(self, dtype):
        rng = np.random.default_rng(7)
        n = 60
        A = from_triplets(dd_spd_triplets(n, rng, signed=True), n)
        if dtype == np.float32:
            A = downcast(A)
        eps = np.finfo(dtype).eps
        for _ in range(20):
            x = rng.standard_normal(n).astype(dtype)
            y = rng.standard_normal(n).astype(dtype)
            lhs = float(np.dot(spmv(A, x), y))
            rhs = float(np.dot(x, spmv(A, y)))
            scale = max(
                float(np.linalg.norm(spmv(A, x)) * np.linalg.norm(y)),
                float(np.linalg.norm(x) * np.linalg.norm(spmv(A, y))),
            )
            assert abs(lhs - rhs) <= 8 * n * eps * scale


class TestSpmvInto:
    """``spmv`` and ``A @ x`` against scipy's own product, bit for bit,
    with explicit zeros in A and -0.0 in x."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scipy_product_bits(self, dtype, seed):
        rng = np.random.default_rng(300 + seed)
        n = 45
        trips = dd_spd_triplets(n, rng, density=0.2, signed=True)
        # explicit zeros, off the diagonal and on it
        trips = [(i, j, 0.0 if (i + j) % 5 == 0 else v) for i, j, v in trips]
        A = from_triplets(trips, n)
        A = A if dtype == np.float64 else downcast(A)
        assert np.any(A.values == 0)
        x = rng.standard_normal(n).astype(dtype)
        x[::7] = -0.0
        want = _scipy_csr(A) @ x
        width = f"u{np.dtype(dtype).itemsize}"
        assert np.array_equal(spmv(A, x).view(width), want.view(width))
        assert np.array_equal((A @ x).view(width), want.view(width))


def family_matrix(family, n, seed=1):
    """A generated matrix; random_gnm with m = 1.5 n edges, random_regular of degree 4."""
    extra = {"random_gnm": {"m_target": 3 * n // 2}, "random_regular": {"degree": 4}}
    return generate(GraphSpec(family, n, seed=seed, **extra.get(family, {})))


def kernel_products(A, x):
    """A x by scipy's csr_matvec and by its coo_matvec, each on a zeroed y."""
    n = A.n
    y_csr, y_coo = np.zeros(n, dtype=A.dtype), np.zeros(n, dtype=A.dtype)
    _sparsetools.csr_matvec(n, n, A.row_starts, A.col_indices, A.values, x, y_csr)
    rows = sparse_module._entry_rows(A)
    _sparsetools.coo_matvec(A.nnz, rows, A.col_indices, A.values, x, y_coo)
    return y_csr, y_coo


def same_bytes(u, v):
    return u.dtype == v.dtype and u.tobytes() == v.tobytes()


def assembly_outcome(assemble, rows, cols, vals, n, mirror):
    """The three CSR arrays of an assembly, or its exception's type and text."""
    try:
        A = assemble(rows, cols, vals, n, mirror)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the error
        return type(exc), str(exc)
    return A.row_starts, A.col_indices, A.values


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        for g, w in zip(got, want):
            assert same_bytes(g, w)


@st.composite
def symmetric_coordinates(draw):
    """Shuffled coordinate arrays of a symmetric matrix with a full diagonal:
    both halves of every off-diagonal entry, or with ``mirror`` one half of
    each, in random order."""
    n = draw(st.integers(1, 25))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    index = draw(st.sampled_from([np.int64, np.int32, np.intp, np.uint16]))
    mirror = draw(st.booleans())
    width = 32 if dtype is np.float32 else 64
    value = st.floats(-1e6, 1e6, width=width)
    upper = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=3 * n,
    ))
    trips = [(i, i, draw(value)) for i in range(n)]
    for i, j in sorted(upper):
        v = draw(value)
        if mirror:
            trips.append((i, j, v) if draw(st.booleans()) else (j, i, v))
        else:
            trips += [(i, j, v), (j, i, v)]
    order = draw(st.permutations(range(len(trips))))
    rows = np.array([trips[k][0] for k in order], dtype=index)
    cols = np.array([trips[k][1] for k in order], dtype=index)
    vals = np.array([trips[k][2] for k in order], dtype=dtype)
    return rows, cols, vals, n, mirror


class TestAssembly:
    """``from_coordinates`` (counting sort) builds the same bytes, in the same
    dtypes, as the lexsort assembly it replaced, and fails the same way."""

    @settings(max_examples=150, deadline=None)
    @given(symmetric_coordinates())
    def test_matches_lexsort_assembly(self, case):
        got = assembly_outcome(from_coordinates, *case)
        want = assembly_outcome(from_coordinates_reference, *case)
        assert not isinstance(want[0], type), want
        assert got[0].dtype == got[1].dtype == np.int32
        assert got[2].dtype == case[2].dtype
        assert_same_outcome(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        entries=st.lists(
            st.tuples(
                st.integers(0, 6), st.integers(0, 6),
                st.sampled_from([1.0, 2.0, -1.0, np.inf, np.nan]),
            ),
            min_size=1,
            max_size=20,
        ),
        mirror=st.booleans(),
    )
    def test_same_error_as_lexsort_assembly(self, n, entries, mirror):
        rows, cols, vals = (np.array(column) for column in zip(*entries))
        got = assembly_outcome(from_coordinates, rows, cols, vals, n, mirror)
        want = assembly_outcome(from_coordinates_reference, rows, cols, vals, n, mirror)
        assert_same_outcome(got, want)

    def test_duplicate_error_names_first_in_row_col_order(self):
        # input order puts (3, 3) first and (1, 2) last; (1, 2) comes first by (row, col)
        rows = np.array([3, 0, 3, 2, 1, 2, 1, 1, 0])
        cols = np.array([3, 0, 3, 1, 2, 2, 1, 2, 0])
        with pytest.raises(DuplicateEntryError, match=r"position \(0, 0\) appears twice"):
            from_coordinates(rows, cols, np.ones(9), 4, False)
        keep = np.arange(9) != 1  # one (0, 0) left
        with pytest.raises(DuplicateEntryError, match=r"position \(1, 2\) appears twice"):
            from_coordinates(rows[keep], cols[keep], np.ones(8), 4, False)

    def test_equal_columns_across_a_row_end_are_no_duplicate(self):
        # row 0 ends and row 1 starts with column 1
        with pytest.raises(AsymmetricInputError):
            from_triplets([(0, 1, 1.0), (1, 1, 1.0)], 2)

    def test_mirror_duplicate_named(self):
        # (0, 1) given and also made by mirroring (1, 0)
        with pytest.raises(DuplicateEntryError, match=r"position \(0, 1\) appears twice"):
            from_triplets([(0, 0, 2.0), (1, 1, 2.0), (0, 1, 1.0), (1, 0, 1.0)], 2, mirror=True)

    @pytest.mark.parametrize("family", ["grid2d", "tree_random", "star"])
    def test_generated_matrix_matches_lexsort_assembly(self, family):
        A = family_matrix(family, 20_000)
        rows = np.repeat(np.arange(A.n), A.row_lengths())
        lower = A.col_indices <= rows
        rng = np.random.default_rng(3)
        order = rng.permutation(int(lower.sum()))
        case = (rows[lower][order], A.col_indices[lower][order].astype(np.int64),
                A.values[lower][order], A.n, True)
        got = assembly_outcome(from_coordinates, *case)
        want = assembly_outcome(from_coordinates_reference, *case)
        assert_same_outcome(got, want)
        assert_same_outcome(got, (A.row_starts, A.col_indices, A.values))


class TestProductKernels:
    """The row loop (csr_matvec) and the flat entry loop (coo_matvec) add
    each row's terms in the same order at the same precision, so the
    kernel ``_accumulate_product`` picks never changes a bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 70),
        density=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.booleans(),
    )
    def test_kernels_agree_on_random_irregular_matrices(self, n, density, seed, zeros):
        rng = np.random.default_rng(seed)
        trips = dd_spd_triplets(n, rng, density=density, signed=True)
        if zeros:  # explicit zeros off the diagonal
            trips = [(i, j, 0.0 if i != j and (i + j) % 3 == 0 else v) for i, j, v in trips]
        A = from_triplets(trips, n)
        for M in (A, downcast(A)):
            x = (rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)).astype(M.dtype)
            y_csr, y_coo = kernel_products(M, x)
            assert same_bytes(y_csr, y_coo)

    @pytest.mark.parametrize("family", ["tree_random", "grid2d", "star", "random_gnm"])
    def test_kernels_agree_on_generated_families(self, family):
        A = family_matrix(family, 20_000)
        rng = np.random.default_rng(7)
        for M in (A, downcast(A)):
            x = rng.standard_normal(A.n).astype(M.dtype)
            y_csr, y_coo = kernel_products(M, x)
            assert same_bytes(y_csr, y_coo)
            assert same_bytes(spmv(M, x), y_csr)

    @pytest.mark.parametrize("family", ["tree_random", "random_gnm"])
    def test_irregular_rows_take_coo_above_8192(self, family):
        for n in (8193, 10_000):
            A = family_matrix(family, n)
            for M in (A, downcast(A)):
                assert sparse_module._accumulate_product(M).func is _sparsetools.coo_matvec

    @pytest.mark.parametrize("family", ["grid2d", "path", "star", "random_regular"])
    def test_regular_rows_take_csr(self, family):
        A = family_matrix(family, 20_000)
        assert sparse_module._accumulate_product(A).func is _sparsetools.csr_matvec

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [16, 1000, 8192])
    def test_at_most_8192_rows_take_csr(self, family, n):
        A = family_matrix(family, n)
        assert sparse_module._accumulate_product(A).func is _sparsetools.csr_matvec

    def test_rule_counts_row_length_changes_per_stored_entry(self):
        # Three-vertex paths side by side: row lengths 2, 3, 2, 2, 3, 2, ...
        # change twice per 7 stored entries; a path's change at its ends only.
        n = 9000
        edges = [(i, i + 1) for i in range(n - 1) if i % 3 != 2]
        trips = [(i, j, -1.0) for i, j in edges] + [(i, i, 3.0) for i in range(n)]
        paths = from_triplets(trips, n, mirror=True)
        assert sparse_module._accumulate_product(paths).func is _sparsetools.coo_matvec
        path = family_matrix("path", n)
        assert sparse_module._accumulate_product(path).func is _sparsetools.csr_matvec
        assert sparse_module._accumulate_product(identity(n)).func is _sparsetools.csr_matvec


class TestPrecisionConversion:
    def test_downcast_exact_for_adjacency_values(self):
        A = from_triplets(
            [(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)], 2
        )
        R = downcast(A)
        assert R.dtype == np.float32 and R.precision == "binary32"
        np.testing.assert_array_equal(R.values.astype(np.float64), A.values)
        np.testing.assert_array_equal(R.row_starts, A.row_starts)
        np.testing.assert_array_equal(R.col_indices, A.col_indices)

    def test_downcast_rounds_tiny_offset_away(self):
        A = from_triplets([(0, 0, 1.0 + 2.0**-30)], 1)
        assert downcast(A).values[0] == np.float32(1.0)

    def test_downcast_overflow(self):
        A = from_triplets([(0, 0, 1e39)], 1)
        with pytest.raises(SinglePrecisionOverflowError):
            downcast(A)

    def test_downcast_of_binary32_rejected(self):
        with pytest.raises(ValueError, match="already binary32"):
            downcast(identity(2, np.float32))

    def test_upcast_of_binary64_rejected(self):
        with pytest.raises(PrecisionMismatchError, match="expects a binary32 vector"):
            upcast_vector(np.ones(2))

    def test_downcast_exact_for_small_integers(self):
        rng = np.random.default_rng(3)
        ints = rng.integers(1, 2**24, size=30)
        A = from_triplets(
            [(i, i, float(v)) for i, v in enumerate(ints)], 30
        )
        np.testing.assert_array_equal(downcast(A).values.astype(np.float64), A.values)

    def test_upcast_is_exact_embedding(self):
        v = np.array([0.5, 0.25, -3.75], dtype=np.float32)
        up = upcast_vector(v)
        assert up.dtype == np.float64
        np.testing.assert_array_equal(up, [0.5, 0.25, -3.75])
        assert np.array_equal(downcast_vector(up), v)

    def test_upcast_zero(self):
        np.testing.assert_array_equal(
            upcast_vector(np.zeros(3, dtype=np.float32)), np.zeros(3)
        )

    def test_upcast_roundtrip_random(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(100).astype(np.float32)
        assert np.array_equal(downcast_vector(upcast_vector(v)), v)

    def test_downcast_vector_overflow(self):
        with pytest.raises(SinglePrecisionOverflowError):
            downcast_vector(np.array([1e39]))

    # Just above the largest binary32 and still rounding to it, the
    # midpoint to 2**128 (rounds to even: infinity), and 2**128.
    BIG = float(np.finfo(np.float32).max)
    ROUNDS_DOWN, MIDPOINT = BIG + 2.0**102, 2.0**128 - 2.0**103

    @pytest.mark.parametrize("values, overflow", [
        ([BIG, -BIG, 0.0], None),
        ([ROUNDS_DOWN, -ROUNDS_DOWN], None),
        ([np.inf, -np.inf, np.nan, 1.0], None),
        ([1.0, MIDPOINT], MIDPOINT),
        ([np.nan, -MIDPOINT], -MIDPOINT),
        ([np.inf, 2.0**128, 1e300], 2.0**128),
        ([], None),
    ])
    def test_downcast_vector_at_the_range_edge(self, values, overflow):
        # Either path of downcast_vector, with no warning: the rounding of
        # an overflow-silenced cast, or the first finite value beyond it.
        x = np.array(values, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if overflow is None:
                with np.errstate(over="ignore"):
                    want = x.astype(np.float32)
                assert same_bytes(downcast_vector(x), want)
            else:
                message = re.escape(f"value {overflow:g} ")
                with pytest.raises(SinglePrecisionOverflowError, match=message):
                    downcast_vector(x)


class TestMatrixMarket:
    def test_one_by_one(self, tmp_path):
        p = tmp_path / "one.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n"
        )
        A = read_matrix_market(p)
        assert A.n == 1 and A.values[0] == 1.0

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        A = from_triplets(dd_spd_triplets(40, rng, signed=True), 40)
        p = tmp_path / "m.mtx"
        write_matrix_market(A, p)
        B = read_matrix_market(p)
        assert np.array_equal(A.row_starts, B.row_starts)
        assert np.array_equal(A.col_indices, B.col_indices)
        assert np.array_equal(A.values.view(np.uint64), B.values.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_writer_reads_back_as_reference(self, tmp_path, dtype):
        # The text differs from the reference's %.17g lines (a % line after
        # the header, shortest round-trip decimals); the matrix does not.
        rng = np.random.default_rng(6)
        A = from_triplets(dd_spd_triplets(60, rng, signed=True), 60, dtype=dtype)
        write_matrix_market(A, tmp_path / "new.mtx")
        write_matrix_market_reference(A, tmp_path / "old.mtx")
        new = read_outcome(tmp_path / "new.mtx")
        assert_same_outcome(new, read_outcome(tmp_path / "old.mtx"))
        assert_same_outcome(new, (A.row_starts, A.col_indices, A.values.astype(np.float64)))

    def test_writer_keeps_a_name_without_mtx(self, tmp_path):
        # given a path, mmwrite would append .mtx to it
        p, I = tmp_path / "matrix", identity(3)
        write_matrix_market(I, str(p))
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_text() == MM_HEADER + "%\n3 3 3\n1 1 1\n2 2 1\n3 3 1\n"
        assert_same_outcome(read_outcome(p), (I.row_starts, I.col_indices, I.values))

    def test_failed_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "m.mtx"
        write_matrix_market(identity(3), p)
        before = p.read_bytes()

        def fail_part_way(target, *args, **kwargs):
            target.write(MM_HEADER.encode())
            raise OSError("no space left on device")

        monkeypatch.setattr(scipy.io, "mmwrite", fail_part_way)
        with pytest.raises(OSError, match="no space left"):
            write_matrix_market(identity(5), p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]  # no .m.mtx.*.tmp beside it

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(MatrixMarketParseError) as err:
            read_matrix_market(p)
        assert err.value.line_number == 1

    def test_general_header_requires_both_halves(self, tmp_path):
        p = tmp_path / "gen.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 2.0\n1 2 1.0\n2 1 1.0\n2 2 2.0\n"
        )
        A = read_matrix_market(p)
        assert A.nnz == 4

    def test_general_header_detects_asymmetry(self, tmp_path):
        p = tmp_path / "gen.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 2.0\n1 2 1.0\n2 1 7.0\n2 2 2.0\n"
        )
        with pytest.raises(AsymmetricInputError):
            read_matrix_market(p)

    def test_symmetric_header_mirrors_lower_triangle(self, tmp_path):
        p = tmp_path / "sym.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 2.0\n"
        )
        A = read_matrix_market(p)
        assert A.nnz == 4
        np.testing.assert_array_equal(A.toarray(), [[2.0, 1.0], [1.0, 2.0]])

    def test_missing_diagonal_detected(self, tmp_path):
        p = tmp_path / "nodiag.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1.0\n"
        )
        with pytest.raises(MissingDiagonalError):
            read_matrix_market(p)

    def test_declared_size_beyond_the_entries_fails_small(self, tmp_path):
        p = tmp_path / "huge.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n20000000 20000000 1\n1 1 1.0\n"
        )
        # untraced first: the first strict read in a process imports scipy.io (1 MB)
        with pytest.raises(MissingDiagonalError):
            read_matrix_market(p)
        assert traced_peak_mb(lambda: read_matrix_market(p)) < 1

    def test_bad_entry_reports_line(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\nosh no\n2 2 2.0\n"
        )
        with pytest.raises(MatrixMarketParseError) as err:
            read_matrix_market(p)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("value, line", [("nan", 4), ("inf", 5), ("-inf", 5)])
    def test_non_finite_value_reports_line(self, tmp_path, value, line):
        entries = ["1 1 2.0", "2 1 1.0", "2 2 2.0"]
        entries[line - 3] = entries[line - 3].rsplit(" ", 1)[0] + f" {value}"
        p = tmp_path / "nonfinite.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
            + "\n".join(entries) + "\n"
        )
        with pytest.raises(MatrixMarketParseError) as err:
            read_matrix_market(p)
        assert err.value.line_number == line

    def test_first_offending_line_wins_after_body_comment(self, tmp_path):
        # a comment among the entries forces the line-by-line parse; the
        # out-of-range index on line 5 precedes the malformed line 7
        p = tmp_path / "late.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
            "1 1 2.0\n% note\n3 1 1.0\n\n2 2 two\n"
        )
        with pytest.raises(MatrixMarketParseError) as err:
            read_matrix_market(p)
        assert err.value.line_number == 5

    def test_late_malformed_line_is_found_in_blocks(self, tmp_path, monkeypatch):
        # Entry L of L is malformed: blocks of isqrt(L) lines, then one
        # block line by line, about 2 sqrt(L) parses, not L.
        L = 10_000
        p = tmp_path / "late.mtx"
        p.write_text(mm_text([f"{i} {i} 1.0" for i in range(1, L)] + ["1 1 x"],
                             size=f"{L} {L} {L}"))
        calls = []
        parse = sparse_module._parse_entries

        def counting(lines):
            calls.append(1)
            return parse(lines)

        monkeypatch.setattr(sparse_module, "_parse_entries", counting)
        assert read_outcome(p) == (MatrixMarketParseError, f"line {L + 2}: malformed entry", L + 2)
        assert len(calls) <= 2 * math.isqrt(L) + 3

    @pytest.mark.parametrize("text, parses", [
        (mm_text([line.replace(" ", "\t") for line in MM_BODY]), 1),
        (mm_text(MM_BODY, sep="\r\n", end="\r\n"), 1),
        (mm_text(MM_BODY[:2] + ["", " \t "] + MM_BODY[2:]), 1),
        (mm_text(MM_BODY[:2] + ["% note"] + MM_BODY[2:]), 2),
    ], ids=["tabs", "crlf", "blank lines", "body comment"])
    def test_file_without_a_fault_is_parsed_once(self, tmp_path, text, parses, monkeypatch):
        # None of the files passes the strict check.  The parse streamed
        # from the open file takes every entry of the first three; it stops
        # at the comment of the last, whose lines are then parsed once,
        # every entry in one call.
        clean, p = tmp_path / "clean.mtx", tmp_path / "lenient.mtx"
        clean.write_text(mm_text(MM_BODY))
        p.write_bytes(text.encode("ascii"))
        want = read_outcome(clean)
        sources = []
        parse = sparse_module._parse_entries

        def recording(source):
            sources.append(type(source))
            return parse(source)

        monkeypatch.setattr(sparse_module, "_parse_entries", recording)
        assert_same_outcome(read_outcome(p), want)
        assert len(sources) == parses and list not in sources[:1]

    def test_float_index_rejected(self, tmp_path):
        p = tmp_path / "floatidx.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1.0 1 2.0\n"
        )
        with pytest.raises(MatrixMarketParseError) as err:
            read_matrix_market(p)
        assert err.value.line_number == 3

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "short.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n"
        )
        with pytest.raises(MatrixMarketParseError):
            read_matrix_market(p)

    @pytest.mark.parametrize("text, message, line", [
        ("", "empty file", 1),
        (MM_HEADER + "% no size line\n", "missing size line", 3),
        (MM_HEADER + "2 2\n", "size line needs 'rows cols entries'", 2),
        (MM_HEADER + "2 2 x\n", "size line is not integral", 2),
        (MM_HEADER + "2 3 1\n", "matrix must be square and nonempty", 2),
        (MM_HEADER + "2 2 -1\n", "matrix must be square and nonempty", 2),
        (MM_HEADER + "1 1 1\n1 1 1.0\n1 1 2.0\n", "more entries than the size line declares", 4),
    ])
    def test_header_and_size_errors(self, tmp_path, text, message, line):
        p = tmp_path / "bad.mtx"
        p.write_text(text)
        with pytest.raises(MatrixMarketParseError) as err:
            read_matrix_market(p)
        assert (str(err.value), err.value.line_number) == (f"line {line}: {message}", line)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n\n1 1 1\n\n% another\n1 1 1.0\n"
        )
        assert read_matrix_market(p).n == 1

    @pytest.mark.parametrize("text, error", STRICTNESS_CASES)
    def test_strict_grammar_keeps_the_loadtxt_outcome(self, tmp_path, monkeypatch, text, error):
        p = tmp_path / "m.mtx"
        p.write_bytes(text.encode("ascii"))
        got = read_outcome(p)
        if error is None:
            clean = tmp_path / "clean.mtx"
            clean.write_text(mm_text(MM_BODY))
            assert_same_outcome(got, read_outcome(clean))
        else:
            assert got == (MatrixMarketParseError, *error)
        monkeypatch.setattr(sparse_module, "_strict_read", without_fast_path)
        assert_same_outcome(got, read_outcome(p))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["binary64", "binary32"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fast_path_round_trip_matches_loadtxt_path(self, dtype, data):
        A = data.draw(extreme_matrices(dtype))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            p = Path(tmp) / "m.mtx"
            write_matrix_market(A, p)
            mp.setattr(sparse_module, "_parse_entries", refuse_loadtxt)
            fast = read_outcome(p)
            mp.undo()
            mp.setattr(sparse_module, "_strict_read", without_fast_path)
            slow = read_outcome(p)
        assert_same_outcome(fast, slow)
        assert_same_outcome(fast, (A.row_starts, A.col_indices, A.values.astype(np.float64)))

    def test_symmetric_file_with_both_halves_names_the_duplicate(self, tmp_path, monkeypatch):
        p = tmp_path / "dup.mtx"
        p.write_text(mm_text(["1 1 2.0", "3 2 1.0", "3 1 4", "2 3 1.0", "2 2 2.0", "3 3 1"],
                             size="3 3 6"))
        want = (DuplicateEntryError, "position (1, 2) appears twice", None)
        monkeypatch.setattr(sparse_module, "_strict_read", without_fast_path)
        assert read_outcome(p) == want
        monkeypatch.undo()
        monkeypatch.setattr(sparse_module, "_parse_entries", refuse_loadtxt)
        assert read_outcome(p) == want

    @pytest.mark.parametrize("kind", ["str", "bytes", "gz name", "descriptor"])
    def test_every_path_kind_takes_the_fast_path(self, tmp_path, monkeypatch, kind):
        # mmread parses the file the reader opened, whatever named it
        p = tmp_path / "m.mtx"
        p.write_text(mm_text(MM_BODY))
        if kind == "gz name":
            source = p.rename(tmp_path / "m.mtx.gz")
        elif kind == "descriptor":
            source = os.open(p, os.O_RDONLY)  # the reader's open() closes it
        else:
            source = {"str": str(p), "bytes": os.fsencode(p)}[kind]
        monkeypatch.setattr(sparse_module, "_parse_entries", refuse_loadtxt)
        assert_same_outcome(read_outcome(source), MM_ARRAYS)

    @pytest.mark.parametrize("ending", ["\r", "\r\n"])
    def test_header_lines_across_the_text_buffer(self, tmp_path, ending):
        # Text mode reads 8 KiB at a time and also ends a line at a lone
        # carriage return; with one at the end of such a block its tell() is
        # an opaque cookie, not a byte offset.  Every alignment of the
        # comment and size line ends with that block reads alike.
        p = tmp_path / "m.mtx"
        for pad in range(8170, 8200):
            comment = "%" + "x" * (pad - len(MM_HEADER)) + "\n%c" + ending
            p.write_text(MM_HEADER + comment + "3 3 5" + ending + "\n".join(MM_BODY) + "\n")
            assert_same_outcome(read_outcome(p), MM_ARRAYS)

    def test_file_replaced_before_the_parse_reads_as_checked(self, tmp_path, monkeypatch):
        p, other = tmp_path / "m.mtx", tmp_path / "other.mtx"
        p.write_text(mm_text(MM_BODY))
        other.write_text(mm_text(entry_at(1, "2 1 7.0")))
        parse = scipy.io.mmread

        def replace_then_parse(source, **kwargs):
            os.replace(other, p)
            return parse(source, **kwargs)

        monkeypatch.setattr(scipy.io, "mmread", replace_then_parse)
        monkeypatch.setattr(sparse_module, "_parse_entries", refuse_loadtxt)
        assert_same_outcome(read_outcome(p), MM_ARRAYS)

    def test_file_rewritten_before_the_parse_takes_the_loadtxt_path(self, tmp_path, monkeypatch):
        p = tmp_path / "m.mtx"
        p.write_text(mm_text(MM_BODY))
        parse = scipy.io.mmread

        def rewrite_then_parse(source, **kwargs):
            p.write_text(mm_text(entry_at(1, "2 1 -1.5.3")))  # mmread reads -1.5
            return parse(source, **kwargs)

        monkeypatch.setattr(scipy.io, "mmread", rewrite_then_parse)
        assert read_outcome(p) == (MatrixMarketParseError, *MALFORMED)


# Each command's argv, and the scipy modules it must have loaded: none at
# all for a command that holds no matrix.  ``features`` and ``solve`` load
# scipy.io with their first read, ``features`` and ``label`` csgraph,
# ``label`` and ``solve`` scipy's BLAS.
SCIPY_BY_COMMAND = {
    "import": ([], set()),
    "generate": (["generate", "--out", "{out}", "--count", "20"], set()),
    "train": (["train", "--sample", "{sample}", "--out", "{out}"], set()),
    "evaluate": (["evaluate", "--sample", "{sample}", "--model", "{model}"], set()),
    "features": (["features", "{matrix}"], {"scipy.io", "scipy.sparse.csgraph"}),
    "label": (["label", "--specs", "{specs}", "--out", "{out}"],
              {"scipy.sparse.csgraph", "scipy.linalg.blas"}),
    "solve": (["solve", "{matrix}", "--eps1", "1e-4"], {"scipy.io", "scipy.linalg.blas"}),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A specs file, its labelled sample, a model and a matrix file."""
    d = tmp_path_factory.mktemp("cli")
    paths = {name: str(d / name) for name in ("specs", "sample", "model", "matrix", "out")}
    plan = ["--count", "20", "--n-min", "20", "--n-max", "40", "--variants", "4"]
    assert cli_main(["generate", "--out", paths["specs"], *plan]) == 0
    assert cli_main(["label", "--specs", paths["specs"], "--out", paths["sample"]]) == 0
    assert cli_main(["train", "--sample", paths["sample"], "--out", paths["model"]]) == 0
    write_matrix_market(generate(GraphSpec("grid2d", 25, seed=1)), paths["matrix"])
    return paths


@pytest.mark.parametrize("command", list(SCIPY_BY_COMMAND))
def test_cli_loads_scipy_only_for_a_matrix(cli_inputs, command):
    template, want = SCIPY_BY_COMMAND[command]
    argv = [arg.format(**cli_inputs) for arg in template]
    # In a fresh interpreter: the test process has loaded scipy long ago.
    script = (
        "import sys\nimport mpcg.cli\n"
        "code = mpcg.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(sparse_module.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    code, *loaded = out.splitlines()[-1].split()
    assert code == "0"
    if want:
        assert want <= set(loaded)
    else:
        assert loaded == []
