"""Sample construction: generate SPD graph matrices, sweep eps1, label.

Matrices are adjacency matrices of unweighted graphs (all off-diagonal
weights 1) with a diagonal chosen to force strict row dominance, hence
positive definiteness.  Each matrix is labeled by one two-stage sweep
over the grid values of eps1 plus the pure binary64 baseline, recording
which grid value minimizes the weighted cost mu*N1 + N2.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._fileio import read_json_lines, write_json, write_json_lines
from .errors import GraphFullError, InvalidSpecError, check_fields
from .features import FeatureVector, extract_features
from .solver import SolveConfig, sweep
from .sparse import SparseSymMatrix, _entry_rows, from_coordinates

__all__ = [
    "DEFAULT_GRID",
    "EpsilonGrid",
    "GraphSpec",
    "CostEntry",
    "SampleRecord",
    "DatasetManifest",
    "generate",
    "perturb",
    "label_matrix",
    "build_sample",
    "plan_specs",
    "write_specs",
    "read_specs",
    "write_sample",
    "read_sample",
]

log = logging.getLogger(__name__)

DEFAULT_GRID = tuple(10.0 ** -l for l in range(1, 8))

# Largest n of a spec: every pair code of n vertices fits in int64, and a
# grid2d spec's divisor search takes milliseconds, not hours.
MAX_N = 2**31 - 1

# Dead ends after which a random_regular spec counts as one that cannot be
# generated.  No desk spec restarts more than twice; at n = 200, degree 170
# restarts about 1400 times, and degree 190 ends here after about 5 s.
RANDOM_REGULAR_RESTARTS = 100

FAMILIES = (
    "path",
    "cycle",
    "grid2d",
    "tree_random",
    "star",
    "random_regular",
    "random_gnm",
)


@dataclass(frozen=True)
class EpsilonGrid:
    """Stage-1 tolerance grid, canonically stored in descending order.

    Class label i corresponds to values[i - 1]; with the default grid that
    is eps1 = 0.1**i for i = 1..7.
    """

    values: tuple[float, ...] = DEFAULT_GRID
    epsilon2: float = 1e-10
    mu: float = 0.5

    def __post_init__(self):
        vals = tuple(sorted((float(v) for v in self.values), reverse=True))
        if not all(map(math.isfinite, vals)):
            raise ValueError("grid values must be finite")
        if len(set(vals)) != len(vals):
            raise ValueError("grid values must be distinct")
        if not vals or vals[-1] <= 0:
            raise ValueError("grid values must be positive")
        if not 0 < self.epsilon2 < math.inf:  # also rejects NaN
            raise ValueError(f"epsilon2 must be positive and finite, got {self.epsilon2!r}")
        if vals[-1] < self.epsilon2:
            raise ValueError("smallest grid value must be >= epsilon2")
        if not 0 < self.mu < 1:
            raise ValueError("mu must lie in (0, 1)")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one generated matrix (or one base-plus-variants group).

    A spec checks itself when it is built, by any route: an inconsistent
    one raises InvalidSpecError, so every spec in hand can be generated.
    ``delta_range`` is stored as a tuple, whatever sequence it was given as.
    """

    family: str
    n: int
    seed: int = 0
    m_target: int | None = None  # random_gnm: number of edges
    degree: int | None = None  # random_regular
    diagonal_strategy: str = "degree_plus_delta"
    delta_range: tuple[float, float] = (0.1, 2.0)
    constant: float | None = None  # uniform_constant diagonal value
    variants: int = 0  # >0: perturbation group of this size
    edges_to_add: int | None = None  # None: 1% of base edges, at least 1

    def __post_init__(self):
        object.__setattr__(self, "delta_range", tuple(self.delta_range))
        if self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown family '{self.family}'")
        optional = ("degree", "m_target", "edges_to_add")
        check_fields(self, ("n", "seed", "variants", *optional), optional=optional,
                     error=InvalidSpecError)
        n = self.n
        if n < 1:
            raise InvalidSpecError("n must be at least 1")
        if n > MAX_N:
            raise InvalidSpecError(f"n must be at most {MAX_N}")
        if self.family == "cycle" and n < 3:
            raise InvalidSpecError("a cycle needs n >= 3")
        if self.family == "random_gnm":
            if self.m_target is None or self.m_target < 0:
                raise InvalidSpecError("random_gnm needs m_target >= 0")
            if self.m_target > n * (n - 1) // 2:
                raise InvalidSpecError("m_target exceeds the number of vertex pairs")
        if self.family == "random_regular":
            d = self.degree
            if d is None or d < 0 or d >= n or (d * n) % 2:
                raise InvalidSpecError("random_regular needs 0 <= degree < n, n*degree even")
        if self.diagonal_strategy == "degree_plus_delta":
            lo, hi = self.delta_range
            if not 0 < lo <= hi < math.inf:
                raise InvalidSpecError("delta_range must satisfy 0 < lo <= hi < inf")
        elif self.diagonal_strategy == "uniform_constant":
            c = self.constant
            if type(c) not in (int, float) or not math.isfinite(c):
                raise InvalidSpecError(f"uniform_constant needs a finite constant, got {c!r}")
            top = _max_degree(self)
            if top is not None and not c > top:
                raise InvalidSpecError(
                    f"uniform_constant {c} must exceed the maximum degree {top}"
                )
        else:
            raise InvalidSpecError(f"unknown diagonal strategy '{self.diagonal_strategy}'")
        if self.seed < 0:
            raise InvalidSpecError("seed must be nonnegative")
        if self.variants < 0:
            raise InvalidSpecError("variants must be nonnegative")
        if self.edges_to_add is not None and self.edges_to_add < 1:
            raise InvalidSpecError("edges_to_add must be at least 1")

    def to_dict(self) -> dict:
        return {**vars(self), "delta_range": list(self.delta_range)}

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSpec":
        return cls(**d)


def _grid_shape(n: int) -> tuple[int, int]:
    r = max(d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0)
    return r, n // r


def _max_degree(spec: GraphSpec) -> int | None:
    """Maximum vertex degree of a family whose degrees the seed does not
    change, known before generation; None for tree_random and random_gnm."""
    if spec.family in ("path", "cycle"):
        return min(2, spec.n - 1)
    if spec.family == "grid2d":
        rows, cols = _grid_shape(spec.n)
        return min(2, rows - 1) + min(2, cols - 1)
    if spec.family == "star":
        return spec.n - 1
    if spec.family == "random_regular":
        return spec.degree
    return None


def _pair_offset(i, n: int):
    """Code of the pair (i, i + 1): upper-triangle pairs (i, j), i < j,
    numbered row by row from 0, the order of ``np.triu_indices(n, 1)``."""
    return i * (2 * n - i - 1) // 2


def _encode_pairs(edges: np.ndarray, n: int) -> np.ndarray:
    """Codes of the upper-triangle pairs in the (E, 2) array ``edges``, in int64."""
    i, j = edges.astype(np.int64, copy=False).T
    return _pair_offset(i, n) + j - i - 1


def _decode_pairs(codes: np.ndarray, n: int) -> np.ndarray:
    """(E, 2) array of the pairs with the given codes, O(E) memory.

    The row is the smaller root of i^2 - (2n - 1) i + 2 code = 0, rounded
    down and then corrected by one where floating point missed a row end.
    """
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * codes)) // 2).astype(np.int64)
    i -= _pair_offset(i, n) > codes
    i += _pair_offset(i + 1, n) <= codes
    return np.stack([i, codes - _pair_offset(i, n) + i + 1], axis=1)


def _random_regular_edges(d: int, n: int, rand: random.Random) -> set[tuple[int, int]]:
    """Edges (i, j), i < j, of a random d-regular graph on n vertices.

    Steger-Wormald pairing (Steger & Wormald, "Generating random regular
    graphs quickly", CPC 1999) as networkx 3.6.1 runs it, draw for draw:
    ``random_regular_graph(d, n, seed=s)`` has exactly these edges when
    ``rand`` is ``random.Random(s)``.  Each round shuffles the open stubs
    and pairs them off; a pair that is a loop or an existing edge returns
    both stubs to the pool, in the order their vertices first failed.  An
    attempt restarts from scratch when no pool vertex can still be joined
    to another; after ``RANDOM_REGULAR_RESTARTS`` restarts, where networkx
    goes on without end, InvalidSpecError is raised.  Requires 0 <= d < n
    with n*d even.
    """
    if d == 0:
        return set()
    for _ in range(RANDOM_REGULAR_RESTARTS + 1):
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            failed: dict[int, int] = {}  # vertex -> stubs returned, first-failure order
            rand.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    failed[s1] = failed.get(s1, 0) + 1
                    failed[s2] = failed.get(s2, 0) + 1
            if not _pool_joinable(edges, failed):
                break  # dead end: a new attempt
            stubs = [v for v, k in failed.items() for _ in range(k)]
        else:
            return edges
    raise InvalidSpecError(f"no random {d}-regular graph on n = {n} vertices after "
                           f"{RANDOM_REGULAR_RESTARTS} restarts")


def _pool_joinable(edges: set[tuple[int, int]], pool: dict[int, int]) -> bool:
    """networkx's ``_suitable``: whether the pairing may go on.

    Its inner loop swaps ``s1`` in place, so after the first swap it tests
    pairs other than "each vertex against the ones before it" and can miss
    a joinable pair.  The quirk decides when an attempt restarts, hence
    which draws follow, so it is kept.
    """
    if not pool:
        return True
    for s1 in pool:
        for s2 in pool:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _family_edges(spec: GraphSpec, rng: np.random.Generator) -> np.ndarray:
    """Undirected edge list (E, 2) with i < j, no duplicates."""
    n = spec.n
    if spec.family == "path":
        i = np.arange(n - 1)
        return np.stack([i, i + 1], axis=1)
    if spec.family == "cycle":
        i = np.arange(n)
        j = (i + 1) % n
        return np.sort(np.stack([i, j], axis=1), axis=1)
    if spec.family == "grid2d":
        rows, cols = _grid_shape(n)
        idx = np.arange(n).reshape(rows, cols)
        right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
        down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
        return np.concatenate([right, down])
    if spec.family == "tree_random":
        if n == 1:
            return np.empty((0, 2), dtype=np.int64)
        child = np.arange(1, n)
        parent = (rng.random(n - 1) * child).astype(np.int64)  # uniform in [0, v)
        return np.stack([parent, child], axis=1)
    if spec.family == "star":
        leaf = np.arange(1, n)
        return np.stack([np.zeros(n - 1, dtype=np.int64), leaf], axis=1)
    if spec.family == "random_regular":
        rand = random.Random(int(rng.integers(0, 2**31 - 1)))
        edges = sorted(_random_regular_edges(spec.degree, n, rand))
        return np.array(edges, dtype=np.int64).reshape(-1, 2)
    pick = rng.choice(n * (n - 1) // 2, size=spec.m_target, replace=False)  # random_gnm
    pick.sort()
    return _decode_pairs(pick, n)


def _dominant_diagonal(
    degrees: np.ndarray,
    strategy: str,
    delta_range: tuple[float, float],
    constant: float | None,
    rng: np.random.Generator,
) -> np.ndarray:
    if strategy == "degree_plus_delta":
        lo, hi = delta_range
        return degrees + rng.uniform(lo, hi, degrees.size)
    if constant is None or not constant > degrees.max(initial=0):
        raise InvalidSpecError(
            "uniform_constant diagonal must exceed the maximum degree"
        )
    return np.full(degrees.size, float(constant))


def _assemble(n: int, edges: np.ndarray, diag: np.ndarray) -> SparseSymMatrix:
    vertices = np.arange(n)
    return from_coordinates(
        np.concatenate([edges[:, 0], vertices]),
        np.concatenate([edges[:, 1], vertices]),
        np.concatenate([np.ones(edges.shape[0]), diag]),
        n,
        mirror=True,
    )


def generate(spec: GraphSpec) -> SparseSymMatrix:
    """Deterministically build the strictly diagonally dominant SPD matrix."""
    rng = np.random.default_rng(spec.seed)
    edges = _family_edges(spec, rng)
    degrees = np.bincount(edges.ravel(), minlength=spec.n)
    diag = _dominant_diagonal(
        degrees, spec.diagonal_strategy, spec.delta_range, spec.constant, rng
    )
    return _assemble(spec.n, edges, diag)


def _upper_edges(A: SparseSymMatrix) -> np.ndarray:
    row_of = _entry_rows(A)
    keep = A.col_indices > row_of
    return np.stack([row_of[keep], A.col_indices[keep]], axis=1)


def perturb(
    base: SparseSymMatrix,
    variants: int = 10,
    edges_to_add: int | None = None,
    seed: int = 0,
    diagonal_strategy: str = "degree_plus_delta",
    delta_range: tuple[float, float] = (0.1, 2.0),
    constant: float | None = None,
) -> list[SparseSymMatrix]:
    """Neighboring matrices: each adds distinct random non-edges to ``base``.

    The diagonal strategy is re-applied on the grown graph so strict
    dominance survives; a uniform constant that no longer dominates is
    bumped to one above the new maximum degree.
    """
    n = base.n
    base_edges = _upper_edges(base)
    if edges_to_add is None:
        edges_to_add = max(1, base_edges.shape[0] // 100)
    if edges_to_add < 1:
        raise ValueError("edges_to_add must be at least 1")
    # CSR order lists the base edges by increasing pair code.  The k-th
    # pair code not taken by the base graph is k plus the number of taken
    # codes that have at most k free codes below them.
    taken = _encode_pairs(base_edges, n)
    gaps = taken - np.arange(taken.size)
    n_free = n * (n - 1) // 2 - taken.size
    if n_free < edges_to_add:
        raise GraphFullError(
            f"need {edges_to_add} new edges, only {n_free} non-edges remain"
        )

    out = []
    for child in np.random.SeedSequence(seed).spawn(variants):
        rng = np.random.default_rng(child)
        k = np.sort(rng.choice(n_free, size=edges_to_add, replace=False))
        codes = k + np.searchsorted(gaps, k, side="right")
        edges = np.concatenate([base_edges, _decode_pairs(codes, n)])
        degrees = np.bincount(edges.ravel(), minlength=n)
        c = constant
        if diagonal_strategy == "uniform_constant" and (
            c is None or not c > degrees.max(initial=0)
        ):
            c = float(degrees.max(initial=0) + 1)
        diag = _dominant_diagonal(degrees, diagonal_strategy, delta_range, c, rng)
        out.append(_assemble(n, edges, diag))
    return out


@dataclass(frozen=True)
class CostEntry:
    """Outcome of one solve during the sweep; eps1 None marks the pure
    binary64 baseline (N1 = 0 by definition).  ``p1`` and ``p2`` count
    the matrix-vector products of each stage of a solve to this eps1
    alone (P1 = 0 for the baseline); they are None in an entry read from
    a sample written before they were recorded.  A field of another type,
    a negative count, or a number that is not finite, raises ValueError."""

    epsilon1: float | None
    n1: int
    n2: int
    cost: float
    p1: int | None = None
    p2: int | None = None

    def __post_init__(self):
        counts = ("n1", "n2", "p1", "p2")
        check_fields(self, counts, ("epsilon1", "cost"), optional=("epsilon1", "p1", "p2"))
        for name in counts:
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


# The fields of a sample record that its costs give, stored as a cache.
_DERIVED = ("label", "i_opt", "i_wrst")


@dataclass
class SampleRecord:
    """One matrix's sweep: its cost entries, the grid values of eps1 in the
    order swept and then the binary64 baseline, and what they give.

    ``label``, ``i_opt`` and ``i_wrst`` are worked out from the grid
    entries when the record is built, never passed: the class of least
    cost, ties going to the larger eps1, and the least and greatest grid
    costs.  A record with ``valid=False`` has None for all three; a valid
    one without a grid entry raises ValueError.
    """

    matrix_id: str
    group_id: str
    spec: GraphSpec | None
    features: FeatureVector
    costs: list[CostEntry]
    label: int | None = field(init=False)
    i_opt: float | None = field(init=False)
    i_wrst: float | None = field(init=False)
    valid: bool = True
    invalid_reason: str | None = None  # class and message of the failure

    def __post_init__(self):
        if type(self.valid) is not bool:  # "false" would read as true
            raise ValueError(f"valid must be a bool, got {self.valid!r}")
        check_fields(self, strings=("matrix_id", "group_id", "invalid_reason"),
                     optional=("invalid_reason",))
        self.label = self.i_opt = self.i_wrst = None
        if self.valid:
            grid = self.grid_entries
            if not grid:
                raise ValueError("a valid record needs a cost entry for a grid value of eps1")
            best = min(grid, key=lambda e: (e.cost, -e.epsilon1))
            self.label = grid.index(best) + 1
            self.i_opt, self.i_wrst = best.cost, max(e.cost for e in grid)

    @property
    def grid_entries(self) -> list[CostEntry]:
        """The cost entries of grid values of eps1, the baseline left out."""
        return [e for e in self.costs if e.epsilon1 is not None]

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "spec": None if self.spec is None else self.spec.to_dict(),
            "features": dict(vars(self.features)),
            "costs": [dict(vars(c)) for c in self.costs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SampleRecord":
        """The record of ``to_dict``'s layout; an unknown or missing key, an
        invalid spec, or a number of the wrong type or not finite, raises.
        Older samples lack ``invalid_reason``.  The stored ``label``,
        ``i_opt`` and ``i_wrst`` are a cache of what the costs give: one of
        the wrong type, or that differs from the record's own, raises
        ValueError naming it."""
        spec = d["spec"]
        cached = SimpleNamespace(**{name: d[name] for name in _DERIVED})
        rec = cls(**{
            **{key: value for key, value in d.items() if key not in _DERIVED},
            "spec": None if spec is None else GraphSpec.from_dict(spec),
            "features": FeatureVector(**d["features"]),
            "costs": [CostEntry(**c) for c in d["costs"]],
        })
        check_fields(cached, ("label",), ("i_opt", "i_wrst"), optional=() if rec.valid else _DERIVED)
        for name, value in vars(cached).items():
            if value != getattr(rec, name):
                raise ValueError(f"{name} {value} is not the {getattr(rec, name)} its costs give")
        return rec


def ones_rhs(A: SparseSymMatrix) -> np.ndarray:
    """Right-hand side making the all-ones vector the exact solution."""
    return A @ np.ones(A.n, dtype=np.float64)


def label_matrix(
    A: SparseSymMatrix,
    b: np.ndarray,
    grid: EpsilonGrid,
    config: SolveConfig | None = None,
    matrix_id: str = "",
    group_id: str = "",
    spec: GraphSpec | None = None,
) -> SampleRecord:
    """Sweep every grid value of eps1 plus the pure binary64 baseline.

    The record works out its label, ``i_opt`` and ``i_wrst`` from the
    grid entries (see ``SampleRecord``).  A failed sweep yields a record
    with ``valid=False``, keeping the cost entries before the first
    failing eps1, that downstream consumers skip; its ``invalid_reason``
    holds the exception's class and message.
    """
    features = extract_features(A)
    epsilons = grid.values + (None,)
    results, failure = sweep(A, b, epsilons, grid.epsilon2, grid.mu, config)
    entries = [
        CostEntry(r.epsilon1, r.n1, r.n2, r.cost, r.stage1_spmv_calls, r.stage2_spmv_calls)
        for r in results
    ]
    if failure is None:
        return SampleRecord(matrix_id, group_id, spec, features, entries)
    eps1 = epsilons[len(results)]
    log.warning("sweep failed for %s at eps1=%s: %s", matrix_id, eps1, failure)
    reason = f"{type(failure).__name__}: {failure}"
    return SampleRecord(matrix_id, group_id, spec, features, entries, False, reason)


@dataclass
class DatasetManifest:
    format_version: int
    records_total: int
    records_valid: int
    structured: int
    groups: int
    grid_values: list[float]
    epsilon2: float
    mu: float
    preconditioner: str
    residual_mode: str
    spec_seeds: list[int]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def manifest_path(sample_path) -> str:
    return str(sample_path) + ".manifest.json"


def _label_one_spec(args) -> list[SampleRecord]:
    """Records of one spec: singleton ``sNNNNN``, or group ``gNNNNN`` with
    base ``gNNNNNb`` and variants ``gNNNNNvVV``; none if generation fails."""
    spec, grid, config, index = args
    gid = f"g{index:05d}" if spec.variants else f"s{index:05d}"
    try:
        mats = [generate(spec)]
        if spec.variants:
            mats += perturb(
                mats[0],
                spec.variants,
                spec.edges_to_add,
                seed=spec.seed,
                diagonal_strategy=spec.diagonal_strategy,
                delta_range=spec.delta_range,
                constant=spec.constant,
            )
    except Exception as exc:  # noqa: BLE001
        log.warning("generation failed for %s: %s", gid, exc)
        return []
    ids = [f"{gid}b" if spec.variants else gid]
    ids += [f"{gid}v{v:02d}" for v in range(spec.variants)]
    return [
        label_matrix(M, ones_rhs(M), grid, config, mid, gid, spec)
        for mid, M in zip(ids, mats)
    ]


def build_sample(
    specs: list[GraphSpec],
    grid: EpsilonGrid,
    out_path,
    config: SolveConfig | None = None,
    threads: int = 1,
) -> DatasetManifest:
    """Generate, label, and stream every spec's records to ``out_path``.

    Records appear in spec order regardless of worker count, so the output
    file is byte-identical for any ``threads`` value.  At most one worker
    process starts per spec, since a pool starts all its workers at once;
    with one spec or none the specs are labelled in this process.  The
    labelling engine's scipy modules are imported before a pool starts,
    so its forked workers inherit them and a process that labels several
    times imports them once.  Per-matrix failures are logged and skipped.
    """
    if config is None:
        config = SolveConfig(tolerance=grid.epsilon2)
    jobs = [(spec, grid, config, i) for i, spec in enumerate(specs)]
    workers = min(threads, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        import scipy.linalg.blas  # noqa: F401 - for the workers, see above
        import scipy.sparse.csgraph  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_label_one_spec, jobs, chunksize=1))
    else:
        batches = [_label_one_spec(job) for job in jobs]
    records = [rec for batch in batches for rec in batch]
    manifest = DatasetManifest(
        format_version=1,
        records_total=len(records),
        records_valid=sum(r.valid for r in records),
        structured=sum(1 for s in specs if s.variants == 0),
        groups=sum(1 for s in specs if s.variants > 0),
        grid_values=list(grid.values),
        epsilon2=grid.epsilon2,
        mu=grid.mu,
        preconditioner=config.preconditioner,
        residual_mode=config.residual_mode,
        spec_seeds=[s.seed for s in specs],
    )
    write_sample(records, out_path, manifest)
    return manifest


def write_specs(specs: list[GraphSpec], path) -> None:
    """One JSON line per spec; the file is replaced whole."""
    write_json_lines(path, (spec.to_dict() for spec in specs))


def read_specs(path) -> list[GraphSpec]:
    """Specs of a JSON-lines file; a bad one raises ValueError naming its
    ``path:line``."""
    return read_json_lines(path, GraphSpec.from_dict, "bad spec at {where}: {exc}")


def write_sample(
    records: list[SampleRecord], path, manifest: DatasetManifest | None = None
) -> None:
    """One JSON line per record, then the manifest beside it; each file is
    replaced whole, so an interrupted write leaves the previous one."""
    write_json_lines(path, (rec.to_dict() for rec in records))
    if manifest is not None:
        write_json(manifest_path(path), manifest.to_dict(), indent=2)


def read_sample(path, include_invalid: bool = False) -> list[SampleRecord]:
    """Records of a sample file; a malformed line raises ValueError."""
    records = read_json_lines(
        path, SampleRecord.from_dict, "malformed record at {where}: {exc!r}"
    )
    return [rec for rec in records if rec.valid or include_invalid]


# Dominance margins from comfortable to razor-thin: the margin steers the
# conditioning, which steers how deep the binary32 stage can usefully go.
_DELTA_CHOICES = ((0.1, 2.0), (0.5, 5.0), (0.01, 0.1), (0.001, 0.01), (0.0001, 0.001))


def plan_specs(
    total: int = 550,
    n_range: tuple[int, int] = (200, 1000),
    structured_fraction: float = 0.27,
    variants: int = 10,
    seed: int = 0,
) -> list[GraphSpec]:
    """Spec mixture: structured families spanning the feature ranges plus
    base-and-perturbation groups of random graphs.

    ``total`` counts matrices, not specs; each perturbation group yields
    ``variants + 1`` matrices.  Structured specs rotate through the
    deterministic families with varied sizes, diagonal strategies, and
    dominance margins so that the pseudo-diameter, spread, and
    maximum-eigenvalue features all take values across their ranges.
    """
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 < structured_fraction < 1:
        raise ValueError("structured_fraction must lie in (0, 1)")
    if variants < 0:
        raise ValueError("variants must be nonnegative")
    n_lo, n_hi = n_range
    if not 2 <= n_lo <= n_hi:
        raise ValueError("n_range must satisfy 2 <= lo <= hi")
    rng = np.random.default_rng(seed)
    n_structured = max(1, round(total * structured_fraction))
    n_groups = max(1, math.ceil((total - n_structured) / (variants + 1)))

    structured_families = ("path", "cycle", "grid2d", "tree_random", "star", "random_regular")
    specs: list[GraphSpec] = []
    for i in range(n_structured):
        family = structured_families[i % len(structured_families)]
        n = int(rng.integers(n_lo, n_hi + 1))
        spec_seed = int(rng.integers(0, 2**62))
        delta = _DELTA_CHOICES[int(rng.integers(len(_DELTA_CHOICES)))]
        strategy = "degree_plus_delta"
        constant = None
        degree = None
        if family == "random_regular":
            degree = int(rng.choice([3, 4, 6, 8]))
            if (n * degree) % 2:
                n += 1
        if family in ("path", "cycle", "grid2d", "random_regular") and i % 2:
            strategy = "uniform_constant"
            base_deg = {"path": 2, "cycle": 2, "grid2d": 4}.get(family, degree)
            constant = float(base_deg) + float(rng.uniform(0.5, 6.0))
        specs.append(
            GraphSpec(
                family=family,
                n=n,
                seed=spec_seed,
                degree=degree,
                diagonal_strategy=strategy,
                delta_range=delta,
                constant=constant,
            )
        )
    for _ in range(n_groups):
        n = int(rng.integers(n_lo, n_hi + 1))
        # Log-uniform density: near-tree graphs (ill-conditioned under thin
        # margins) through comfortably dense ones.
        density = float(np.exp(rng.uniform(np.log(1.05), np.log(4.0))))
        m_target = min(int(n * density), n * (n - 1) // 2)
        spec_seed = int(rng.integers(0, 2**62))
        delta = _DELTA_CHOICES[int(rng.integers(len(_DELTA_CHOICES)))]
        specs.append(
            GraphSpec(
                family="random_gnm",
                n=n,
                seed=spec_seed,
                m_target=m_target,
                delta_range=delta,
                variants=variants,
            )
        )
    return specs
