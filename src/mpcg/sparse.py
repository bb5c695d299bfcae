"""Symmetric sparse matrices in CSR form at binary64 or binary32 precision.

Both halves of every off-diagonal entry are stored, column indices are
sorted within each row, and an explicit diagonal entry is required in every
row.  Matrix-vector products run entirely in the arithmetic of the stored
precision: a binary32 matrix multiplied by a binary32 vector accumulates in
binary32, in storage order along each row.  Matrices and vectors are
treated as immutable after construction, so they are safe to share.

Every product is one call of a compiled scipy ``sparsetools`` kernel,
chosen per matrix by ``_accumulate_product`` from the CSR structure alone:
``csr_matvec``, one loop per row, or ``coo_matvec``, one flat loop over the
stored entries with a row index per entry.  On a zeroed y both form each
y_i as ``((0 + a_i1 x_1) + a_i2 x_2) + ...`` in storage order and storage
precision, so the choice never changes a bit.  It changes the clock: the
row loop's exit is a branch, and where row lengths change from row to row
the predictor misses it on almost every row.  Measured on a 2-core x86-64
host (median microseconds per product at n = 10^5, binary64/binary32):
``tree_random`` CSR 977/830 against COO 729/390, ``random_gnm`` with
m = 1.5 n 1422/1366 against 1017/657, but ``grid2d`` 401/359 against
573/525, ``path`` 313/330 against 394/420, ``star`` 337/340 against
616/615 and ``random_regular`` of degree 4 883/552 against 1231/777.  At
n = 1000 CSR wins on ``tree_random`` too (4.6/4.5 against 5.5/5.3), since
the predictor learns a short sequence; COO wins from between 2000 and
8192 rows on, by family (at 8192, ``tree_random`` 66/54 against 38/26).
Hence the rule: COO when A has more than ``_COO_MIN_ROWS`` rows, past
the crossover and every desk-size matrix, and its row length changes at
least once per ``_COO_ENTRIES_PER_CHANGE`` stored entries; CSR otherwise.

A matrix is its three CSR arrays and nothing else.  Validation,
products and the diagonal read them directly, and a scipy ``csr_matrix``
over them is built only for the scipy functions that take one
(``_scipy_csr``: ``mmwrite``, ``toarray`` and the csgraph searches of
``features``).  So the binary32 copy of a validated matrix, which shares
its index arrays, costs one rounding pass over the values.  scipy.sparse
is imported by the functions that build or multiply a matrix, not by
this module, so a command that never holds one (``mpcg generate``,
``train``, ``evaluate``) starts without scipy.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from functools import partial
from operator import attrgetter

import numpy as np

from ._fileio import atomic_write
from .errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    DuplicateEntryError,
    MatrixMarketParseError,
    MissingDiagonalError,
    PrecisionMismatchError,
    SinglePrecisionOverflowError,
)

__all__ = [
    "SparseSymMatrix",
    "from_coordinates",
    "spmv",
    "downcast",
    "downcast_vector",
    "upcast_vector",
    "read_matrix_market",
    "write_matrix_market",
]

_VALUE_DTYPES = (np.float32, np.float64)


class SparseSymMatrix:
    """Square symmetric matrix stored in CSR with full (two-sided) structure.

    Build one from coordinate arrays with ``from_coordinates``, from a file
    with ``read_matrix_market``, or from CSR arrays with this constructor.
    The matrix is its three arrays below, read-only, and nothing else: no
    scipy object and no cache.  Validation and every product read them
    directly, and a scipy ``csr_matrix`` over the same arrays is built only
    where scipy itself takes one, by ``write_matrix_market``, ``toarray``
    and the csgraph searches of ``features`` (``_scipy_csr``).  The index
    dtype is the one scipy's ``csr_matrix`` would pick, int32 wherever it
    fits.  ``downcast`` shares both index arrays and allocates only its
    values.

    Attributes
    ----------
    row_starts : integer array, length n + 1
    col_indices : integer array, length nnz, strictly increasing per row
    values : float64 or float32 array, length nnz
    """

    __slots__ = ("row_starts", "col_indices", "values")

    def __init__(self, row_starts, col_indices, values, validate: bool = True):
        from scipy.sparse import get_index_dtype  # deferred, as every scipy import here

        values = np.ascontiguousarray(values)
        if values.dtype not in _VALUE_DTYPES:
            values = values.astype(np.float64)
        row_starts, col_indices = np.asarray(row_starts), np.asarray(col_indices)
        index = get_index_dtype(
            (col_indices, row_starts), maxval=max(row_starts.size - 1, 0), check_contents=True
        )
        self.row_starts = np.ascontiguousarray(row_starts, dtype=index)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=index)
        self.values = values
        for arr in (self.row_starts, self.col_indices, self.values):
            arr.setflags(write=False)
        if validate:
            self._validate()

    @property
    def n(self) -> int:
        return self.row_starts.size - 1

    @property
    def nnz(self) -> int:
        return self.col_indices.size

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def precision(self) -> str:
        return "binary32" if self.dtype == np.float32 else "binary64"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        """Fresh dense copy of the diagonal, in storage precision, O(nnz):
        sparsetools' ``csr_diagonal``, the kernel of scipy's ``diagonal()``."""
        from scipy.sparse import _sparsetools

        n, diag = self.n, np.empty(self.n, dtype=self.dtype)
        _sparsetools.csr_diagonal(0, n, n, self.row_starts, self.col_indices, self.values, diag)
        return diag

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.row_starts)

    def toarray(self) -> np.ndarray:
        return _scipy_csr(self).toarray()

    def __matmul__(self, x) -> np.ndarray:
        return spmv(self, x)

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz}, {self.precision})"

    def _validate(self) -> None:
        """Check the arrays.  A^T's arrays come from sparsetools'
        ``csr_tocsc``, rows increasing per column."""
        from scipy.sparse import _sparsetools

        rs, cols, values = self.row_starts, self.col_indices, self.values
        if not rs.ndim == cols.ndim == values.ndim == 1 or cols.size != values.size:
            raise ValueError("col_indices and values must be vectors of one length")
        n, m = self.n, cols.size
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        if rs[0] != 0 or rs[-1] != m or np.any(np.diff(rs) < 0):
            raise ValueError("row_starts must be nondecreasing from 0 to nnz")
        if m and (cols.min() < 0 or cols.max() >= n):
            raise IndexError("column index out of range")
        row_of = _entry_rows(self)
        if m > 1:
            same_row = row_of[1:] == row_of[:-1]
            dup = same_row & (cols[1:] == cols[:-1])
            if dup.any():
                k = int(dup.argmax())
                raise DuplicateEntryError(f"position ({row_of[k]}, {cols[k]}) appears twice")
            if np.any(same_row & (cols[1:] < cols[:-1])):
                raise ValueError("column indices not sorted within a row")
        finite = np.isfinite(values)
        if not finite.all():
            k = int(finite.argmin())
            raise ValueError(f"value at ({row_of[k]}, {cols[k]}) is not finite")
        tp, ti, tx = np.empty_like(rs), np.empty_like(cols), np.empty_like(values)
        _sparsetools.csr_tocsc(n, n, rs, cols, values, tp, ti, tx)
        if not (np.array_equal(tp, rs) and np.array_equal(ti, cols)):
            raise AsymmetricInputError("structure is not symmetric")
        bits = np.dtype(f"u{values.itemsize}")
        if not np.array_equal(values.view(bits), tx.view(bits)):
            raise AsymmetricInputError("mirrored entries differ in value")
        if np.count_nonzero(cols == row_of) != n:  # past the duplicate scan: one per row
            raise MissingDiagonalError("every row needs an explicit diagonal entry")


def _scipy_csr(A: SparseSymMatrix):
    """A scipy ``csr_matrix`` over A's own arrays, for the scipy functions
    that take one; scipy's constructor checks them again."""
    import scipy.sparse

    return scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_starts), shape=A.shape)


def _entry_rows(A: SparseSymMatrix) -> np.ndarray:
    """Row index of every stored entry, in storage order and index dtype."""
    return np.repeat(np.arange(A.n, dtype=A.row_starts.dtype), A.row_lengths())


def from_coordinates(
    rows, cols, vals, n: int, mirror: bool = False, validate: bool = True
) -> SparseSymMatrix:
    """Build a matrix from coordinate arrays in O(nnz): entry k is
    ``vals[k]`` at ``(rows[k], cols[k])``.

    ``rows``, ``cols`` and ``vals`` are vectors of one length, or
    sequences that convert to such; the first two must be of an integer
    dtype (a float index, ``1.0`` included, is a TypeError), since the
    compiled kernels below trust them.  The values keep their dtype,
    binary64 or binary32; any other becomes binary64.  The input must
    contain both symmetric halves of each off-diagonal entry, or
    ``mirror=True`` to add the missing (col, row, value) copies.
    Duplicated positions and non-finite values are errors.

    Once in range, the indices are cast to scipy's index dtype, int32
    wherever n and the mirrored nnz fit, before mirroring, so no wider copy
    is mirrored or sorted.  Then sparsetools' ``coo_tocsr``, a stable
    counting sort by row, and ``csr_sort_indices``, which sorts each row by
    column, order them.  The constructor's validation then finds any
    duplicate as an equal adjacent column within a row, so its error names
    the first in (row, col) order.  Fewer mirrored entries than rows
    cannot hold a diagonal, and fail so before any array of length n is
    allocated: a size line can declare any n.  ``validate=False`` leaves
    the validation to a caller that holds the coordinates and lets them go
    first, as ``read_matrix_market``'s strict path does.
    """
    from scipy.sparse import _sparsetools, get_index_dtype

    rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals)
    if not (np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)):
        raise TypeError(f"triplet indices must be integers, not {rows.dtype} and {cols.dtype}")
    if not rows.ndim == 1 or not rows.shape == cols.shape == vals.shape:
        raise ValueError("rows, cols and vals must be vectors of one length")
    if rows.size == 0:
        raise ValueError("at least one triplet is required")
    if rows.min() < 0 or cols.min() < 0 or rows.max() >= n or cols.max() >= n:
        raise IndexError(f"triplet index out of range for n={n}")
    if vals.dtype not in _VALUE_DTYPES:
        vals = vals.astype(np.float64)
    m = rows.size
    if mirror:
        off = rows != cols
        m += int(np.count_nonzero(off))
    if m < n:
        raise MissingDiagonalError("every row needs an explicit diagonal entry")
    index_dtype = get_index_dtype(maxval=max(n, m))
    rows, cols = rows.astype(index_dtype, copy=False), cols.astype(index_dtype, copy=False)
    if mirror:
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, vals[off]])
        del off
    row_starts = np.empty(n + 1, dtype=index_dtype)
    col_indices = np.empty(m, dtype=index_dtype)
    values = np.empty(m, dtype=vals.dtype)
    _sparsetools.coo_tocsr(
        n, n, m, np.ascontiguousarray(rows), np.ascontiguousarray(cols),
        np.ascontiguousarray(vals), row_starts, col_indices, values,
    )
    del rows, cols, vals  # validate with only the CSR arrays left
    _sparsetools.csr_sort_indices(n, row_starts, col_indices, values)
    return SparseSymMatrix(row_starts, col_indices, values, validate)


def spmv(A: SparseSymMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x in the arithmetic of A's storage precision, O(nnz).

    It checks x, zeroes a fresh y and accumulates A x into it with the
    kernel ``_accumulate_product`` picks for A (see the module notes), so
    every product of a matrix holds the same bits whichever kernel runs.
    CG does not call it: a run binds the helper's product once and calls
    it on operands it checked once.
    """
    x = np.asarray(x)
    n = A.n
    if x.shape != (n,):
        raise DimensionMismatchError(f"expected vector of length {n}")
    if x.dtype != A.dtype:
        raise PrecisionMismatchError(
            f"vector is {x.dtype}, matrix stores {A.dtype}"
        )
    y = np.zeros(n, dtype=A.dtype)
    _accumulate_product(A)(x, y)
    return y


_COO_MIN_ROWS = 8192  # at most this many rows, the row loop's exit is predicted
_COO_ENTRIES_PER_CHANGE = 10  # at most this many stored entries per row-length change


def _accumulate_product(A: SparseSymMatrix):
    """``product(x, out)``, which adds A x into ``out`` with no check per
    call: x and out must be vectors of length n at A's dtype that do not
    overlap.

    The kernel is scipy's ``coo_matvec`` when A has more than
    ``_COO_MIN_ROWS`` rows and its row length changes between consecutive
    rows at least once per ``_COO_ENTRIES_PER_CHANGE`` stored entries, and
    ``csr_matvec`` otherwise.  Both add each row's terms into ``out[i]`` in
    storage order at storage precision, so on a zeroed ``out`` they give the
    same bits; the module notes give the timings behind the rule.  The rule
    and COO's row index per entry (``_entry_rows``, 4 bytes per entry at
    int32) cost O(nnz) per call of this helper, not per product: a CG run
    calls it once, for its initial residual and its loop alike.
    """
    from scipy.sparse import _sparsetools

    n = A.n
    if n > _COO_MIN_ROWS:
        changes = np.count_nonzero(np.diff(A.row_lengths()))
        if _COO_ENTRIES_PER_CHANGE * changes >= A.nnz:
            return partial(_sparsetools.coo_matvec, A.nnz, _entry_rows(A), A.col_indices, A.values)
    return partial(_sparsetools.csr_matvec, n, n, A.row_starts, A.col_indices, A.values)


def downcast(A: SparseSymMatrix) -> SparseSymMatrix:
    """Round every value to the nearest binary32, sharing A's index arrays.

    The copy is array work alone: one rounding pass over the values, no
    scipy object and no second validation, since A's arrays were validated
    when A was built and rounding keeps mirrored values equal and finite
    ones finite or raises.  Raises SinglePrecisionOverflowError if any
    finite value lands outside the binary32 range, which means the
    reduced-precision stage cannot run.
    """
    if A.dtype == np.float32:
        raise ValueError("matrix is already binary32")
    values = downcast_vector(A.values)
    values.setflags(write=False)
    R = SparseSymMatrix.__new__(SparseSymMatrix)  # no constructor: nothing to check
    R.row_starts, R.col_indices, R.values = A.row_starts, A.col_indices, values
    return R


_BINARY32_MAX = (2 - 2.0**-23) * 2.0**127  # the largest binary32; nothing within it rounds to inf


def downcast_vector(x: np.ndarray) -> np.ndarray:
    """Round a binary64 vector to binary32, rejecting overflow to infinity.

    A vector whose largest and smallest values lie within the binary32
    range, the common case, is rounded in one pass.  Any other, one with a
    NaN (which compares false) or an infinity included, is rounded with
    the overflow warning silenced and searched for a finite value that
    became infinite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.max(initial=0.0) <= _BINARY32_MAX and x.min(initial=0.0) >= -_BINARY32_MAX:
        return x.astype(np.float32)
    with np.errstate(over="ignore"):
        x32 = x.astype(np.float32)
    overflow = np.isinf(x32) & np.isfinite(x)
    if overflow.any():
        value = x[overflow.argmax()]
        raise SinglePrecisionOverflowError(f"value {value:g} exceeds binary32 range")
    return x32


def upcast_vector(x: np.ndarray) -> np.ndarray:
    """Exact embedding of a binary32 vector into binary64."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        raise PrecisionMismatchError("upcast expects a binary32 vector")
    return x.astype(np.float64)


def write_matrix_market(A: SparseSymMatrix, path) -> None:
    """Write the lower triangle in coordinate format with a symmetric header.

    One call of ``scipy.io.mmwrite``'s compiled writer on the binary buffer
    of an ``atomic_write`` handle (given a path, it would add ``.mtx`` to a
    name without one, and it refuses a text stream), so the file replaces
    ``path`` whole or not at all, like every file the package writes.  It
    keeps the entries on and below the diagonal in row-major order, writes
    a ``%`` line after the header, and writes each value as the shortest
    decimal that reads back as the same binary64.  A binary32 matrix is
    written as its exact binary64 embedding, so both precisions round-trip
    bit for bit; the file passes ``read_matrix_market``'s strict grammar.
    """
    from scipy.io import mmwrite

    with atomic_write(path) as fh:
        mmwrite(fh.buffer, _scipy_csr(A).astype(np.float64, copy=False), symmetry="symmetric")


_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _parse_entries(lines) -> np.ndarray:
    """Parse 'row col value' lines, a list of them or an open text file.

    The one parser for every entry line: an index such as ``1.0`` or a
    line with other than three fields raises ValueError.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)


def _entry_errors(entries: np.ndarray, n: int) -> list[tuple[int, int, str]]:
    """(index, rank, message) of the first out-of-range and the first
    non-finite entry; rank orders two errors on the same line."""
    rows, cols = entries["row"], entries["col"]
    checks = (
        ((rows < 1) | (rows > n) | (cols < 1) | (cols > n), 2, "index out of range"),
        (~np.isfinite(entries["value"]), 3, "value is not finite"),
    )
    return [(int(bad.argmax()), rank, msg) for bad, rank, msg in checks if bad.any()]


def _entries_by_line(fh, body, lineno: int, n_entries: int, n: int) -> np.ndarray:
    """Parse the lines after the size line ``lineno``, which ends at
    ``body``, a ``tell()`` of the text file ``fh``.

    The path behind ``read_matrix_market`` for a file that fails the
    strict check.  The body is first streamed from the file into one
    ``np.loadtxt`` call, which keeps no line: a body of exactly
    ``n_entries`` entries with no fault, blank lines among them, parses so
    in the time and memory of the parse alone.  Any other body, one with a
    comment line among the entries included (the streamed parse takes
    none), is read again as lines with their line numbers.  Comment lines
    among the entries are skipped, the L lines left are parsed in one
    call, and a fault raises at the first offending line.  When the lines
    do not parse as a whole, the first one that does not is found in
    blocks of about sqrt(L) lines, and then line by line within the first
    block that fails: about 2 sqrt(L) parses, not one per line before it.
    """
    fh.seek(body)
    try:
        entries = _parse_entries(fh)
    except ValueError:
        entries = None
    if entries is not None and entries.size == n_entries and not _entry_errors(entries, n):
        return entries
    fh.seek(body)
    linenos, lines = [], []
    for lineno, line in enumerate(fh, start=lineno + 1):
        if line.strip() and not line.lstrip().startswith("%"):
            linenos.append(lineno)
            lines.append(line)
    try:
        entries, stop = _parse_entries(lines), len(lines)
    except ValueError:
        stop = 0
        for step in (math.isqrt(len(lines)), 1):
            while stop < len(lines) and _parses(lines[stop : stop + step]):
                stop += step
        entries = _parse_entries(lines[:stop])
    errors = _entry_errors(entries, n)
    if len(lines) > n_entries:
        errors.append((n_entries, 0, "more entries than the size line declares"))
    if stop < len(lines):
        columns = len(lines[stop].split()) == 3
        errors.append((stop, 1, "malformed entry" if columns else "entry needs 'row col value'"))
    if errors:
        k, _, message = min(errors)
        raise MatrixMarketParseError(message, linenos[k])
    if len(lines) != n_entries:
        raise MatrixMarketParseError(
            f"expected {n_entries} entries, found {len(lines)}", lineno + 1
        )
    return entries


def _parses(lines: list[str]) -> bool:
    try:
        _parse_entries(lines)
    except ValueError:
        return False
    return True


# The strict entry grammar, ``<digits> <digits> <decimal float>\n`` per
# line.  Its possessive quantifiers (Python 3.11 on) never give back what
# they matched, so sre checks a body of any size in one pass.
_STRICT_ENTRIES = re.compile(
    rb"(?:[0-9]++ [0-9]++ [-+]?+(?:[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][-+]?+[0-9]++)?+\n)*+"
)
_FILE_VERSION = attrgetter("st_size", "st_mtime_ns")  # both change when a file is written


def _strict_read(fh, body: int, lines: int, n_entries: int, n: int, symmetric: bool):
    """The matrix in the file from scipy's compiled parser, or None.

    ``fh`` is the file in text mode and ``body`` its ``tell()`` after its
    first ``lines`` lines, the last of them the size line.  The file's
    bytes are read once, and the body after their ``lines``-th line feed
    must start at ``body`` (text mode also ends a line at a lone carriage
    return, and its ``tell()`` is an opaque cookie, not always a byte
    offset, once it has read one) and be exactly ``n_entries`` lines of
    the strict grammar above: ``mmread`` keeps the valid prefix of a token
    (``1.2.3`` reads as 1.2, ``2_0`` as 2) and reads a fourth column or a
    second entry on a line without an error.  The copy is let go before
    ``mmread`` parses the same open file and appends the mirrors of a
    symmetric file's off-diagonal entries, as ``from_coordinates`` does.  Its
    result counts only if the file's size and time stamp did not change
    meanwhile, and the result holds the size line's shape, the number of
    entries that count and header imply, and finite values.  None sends
    the file to the ``np.loadtxt`` path, which gives an index out of
    range, a value beyond binary64 and every other fault its line-numbered
    error.
    """
    raw = fh.buffer
    version = _FILE_VERSION(os.fstat(raw.fileno()))
    raw.seek(0)
    text = raw.read()
    start = 0
    for _ in range(lines):
        start = text.find(b"\n", start) + 1
        if start == 0:
            return None
    if (
        start != body
        or text.count(b"\n", start) != n_entries
        or not _STRICT_ENTRIES.fullmatch(text, start)
    ):
        return None
    del text
    from scipy.io import mmread  # on first use: importing mpcg.cli does not pay for it

    raw.seek(0)
    try:
        coo = mmread(raw, spmatrix=False)
    except (ValueError, OverflowError):  # an index out of range or beyond int64
        return None
    rows, cols, values = coo.row, coo.col, coo.data
    mirrored = np.count_nonzero(rows[:n_entries] != cols[:n_entries]) if symmetric else 0
    if (
        _FILE_VERSION(os.fstat(raw.fileno())) != version
        or coo.shape != (n, n)
        or rows.size != n_entries + mirrored
        or not np.isfinite(values).all()
    ):
        return None
    A = from_coordinates(rows, cols, values, n, validate=False)
    del coo, rows, cols, values  # validate with only the CSR arrays left
    A._validate()
    return A


def read_matrix_market(path) -> SparseSymMatrix:
    """Read a coordinate-format file with a symmetric or general header.

    Symmetric files are mirrored; general files must already contain both
    halves and are validated for symmetry.  Entry values must be finite.
    A body of exactly the declared number of ``row col value`` lines, each
    three tokens split by single spaces, unsigned decimal indices and a
    decimal value (optional sign, fraction and exponent, no NaN or Inf),
    every line ending in a line feed, header lines included, is parsed by
    ``scipy.io.mmread``'s compiled parser (``_strict_read``);
    ``write_matrix_market`` writes such files.  Any other file, or one
    whose parse holds an index out of range or a value that is not finite,
    is parsed by ``_entries_by_line``: one ``np.loadtxt`` call streamed
    from the open file, and where that parse fails or shows a fault, a
    line-numbered pass that skips comment lines among the entries and
    raises MatrixMarketParseError at the first offending line.
    Both paths return the same arrays, bit for bit, on every file the
    first accepts.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
        if not first:
            raise MatrixMarketParseError("empty file", 1)
        header = first.split()
        if (
            len(header) != 5
            or header[0].lower() != "%%matrixmarket"
            or [w.lower() for w in header[1:4]] != ["matrix", "coordinate", "real"]
            or header[4].lower() not in ("symmetric", "general")
        ):
            raise MatrixMarketParseError(
                "expected '%%MatrixMarket matrix coordinate real "
                "{symmetric|general}' header",
                1,
            )
        symmetric = header[4].lower() == "symmetric"

        lineno = 1
        for size_line in iter(fh.readline, ""):
            lineno += 1
            if size_line.strip() and not size_line.lstrip().startswith("%"):
                break
        else:
            raise MatrixMarketParseError("missing size line", lineno + 1)
        parts = size_line.split()
        if len(parts) != 3:
            raise MatrixMarketParseError("size line needs 'rows cols entries'", lineno)
        try:
            n_rows, n_cols, n_entries = (int(p) for p in parts)
        except ValueError:
            raise MatrixMarketParseError("size line is not integral", lineno) from None
        if n_rows != n_cols or n_rows < 1 or n_entries < 0:
            raise MatrixMarketParseError("matrix must be square and nonempty", lineno)

        body = fh.tell()
        A = _strict_read(fh, body, lineno, n_entries, n_rows, symmetric)
        if A is not None:
            return A
        entries = _entries_by_line(fh, body, lineno, n_entries, n_rows)
    return from_coordinates(
        entries["row"] - 1, entries["col"] - 1, entries["value"], n_rows, symmetric
    )
