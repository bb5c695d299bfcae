"""In-memory span tracer that wraps mpcg's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules
(sparse, solver, features, dataset, regression, cli) with a timing wrapper
in each module namespace that looks it up, so calls between modules are
traced without any change to the package.  A span is (name, parent, start,
end, count), kept in flat arrays and written out when the run ends.

Labelling workers forked by ``build_sample`` inherit the wrappers.  Each
worker starts an empty span buffer after the fork and dumps it to
``worker-<pid>.npz`` when it exits; ``collect_workers`` merges those files,
keeping worker spans as roots of their own process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import multiprocessing.util as mp_util
import os
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("sparse", "solver", "features", "dataset", "regression", "cli")

# Functions whose spans are split by the precision of their matrix argument.
_BY_PRECISION = ("spmv", "cg", "pcg_jacobi")


def _is_single(args) -> bool:
    return args[0].dtype.itemsize == 4


def spmv_bytes(A) -> int:
    """Computed bytes one CSR product reads and writes: values, int32 column
    indices and row pointers as scipy stores them, x read once, y written."""
    width = A.dtype.itemsize
    index = 4 if max(A.nnz, A.n) < 2**31 else 8
    return A.nnz * (width + index) + (A.n + 1) * index + 2 * A.n * width


def _counter(name):
    if name == "spmv":
        return lambda args, result: spmv_bytes(args[0])
    if name in ("cg", "pcg_jacobi"):
        return lambda args, result: result.iterations
    return None


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._installed = False
        self._reset()

    def _reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, layer: str):
        tracer = self
        clock = time.perf_counter
        count = _counter(fn.__name__)
        if fn.__name__ in _BY_PRECISION:
            id32 = self._id(f"{layer}.{fn.__name__}.b32")
            id64 = self._id(f"{layer}.{fn.__name__}.b64")
        else:
            id32 = id64 = self._id(f"{layer}.{fn.__name__}")
        split = id32 != id64

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.end)
            tracer.name_id.append(id32 if split and _is_single(args) else id64)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.count.append(0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            if count is not None:
                tracer.count[idx] = count(args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap each layer's public functions wherever a layer module (or the
        package itself) holds a reference to them."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        owners = {f"{package.__name__}.{m}": m for m in LAYERS}
        wrappers: dict[object, object] = {}
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ in owners
                ):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, owners[value.__module__])
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        self._installed = True
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        self._installed = False

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span for one part of the benchmark (``bench.<name>``)."""
        idx = len(self.end)
        self.name_id.append(self._id(f"bench.{name}"))
        self.parent.append(-1)
        self.count.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _after_fork(self) -> None:
        if not self._installed:
            return
        self._reset()
        mp_util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        self.save(self.out_dir / f"worker-{os.getpid()}.npz")

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count=np.frombuffer(self.count, dtype=np.int64),
        )

    def collect_workers(self) -> int:
        """Merge the span files of exited workers; returns how many merged."""
        files = sorted(self.out_dir.glob("worker-*.npz"))
        for path in files:
            with np.load(path) as data:
                names = json.loads(str(data["names"]))
                remap = np.array([self._id(n) for n in names], dtype=np.int32)
                offset = len(self.end)
                parent = data["parent"]
                self.name_id.extend(remap[data["name_id"]].tolist())
                self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
                self.start.extend(data["start"].tolist())
                self.end.extend(data["end"].tolist())
                self.count.extend(data["count"].tolist())
            path.unlink()
        return len(files)

    def spans(self) -> "Spans":
        return Spans(
            self.names,
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.count, dtype=np.int64).copy(),
        )


class Spans:
    """Read-only view of recorded spans with self-time bookkeeping."""

    def __init__(self, names, name_id, parent, start, end, count):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.count = count
        self.duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(parent)
        )
        # Children of one span run one after another in its own process, so
        # their summed duration is the part of the span they cover.
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.name_id)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def parent_is(self, mask: np.ndarray, name: str) -> np.ndarray:
        """Of the spans in ``mask``, those whose direct parent is ``name``."""
        out = np.zeros(len(self), dtype=bool)
        idx = np.nonzero(mask & (self.parent >= 0))[0]
        out[idx] = self.mask(name)[self.parent[idx]]
        return out

    def total(self, *names: str) -> float:
        """Inclusive seconds summed over every span of the given names."""
        return float(sum(self.duration[self.mask(n)].sum() for n in names))

    def median(self, name: str) -> float:
        durations = self.duration[self.mask(name)]
        return float(np.median(durations)) if durations.size else 0.0

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def counted(self, mask: np.ndarray) -> int:
        return int(self.count[mask].sum())

    def layer_self(self, layer: str) -> float:
        in_layer = np.array([n.startswith(layer + ".") for n in self.names], dtype=bool)
        return float(self.self_time[in_layer[self.name_id]].sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=self.name_id,
            parent=self.parent,
            duration=self.duration,
            self_time=self.self_time,
            count=self.count,
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Function timings are inclusive of the calls they make; ``<layer>.self_s``
    is the layer's self time.  A figure whose function the workload never
    calls reads 0.
    """
    s = spans
    m: dict[str, tuple[float, str]] = {}
    for p in ("b32", "b64"):
        spmv = s.mask(f"sparse.spmv.{p}")
        seconds = float(s.duration[spmv].sum())
        m[f"sparse.spmv_us.{p}"] = (s.median(f"sparse.spmv.{p}") * 1e6, "us")
        m[f"sparse.spmv_gbps.{p}"] = (_ratio(s.counted(spmv) / 1e9, seconds), "GB/s")
    m["sparse.spmv_calls"] = (float(s.calls("sparse.spmv.b32") + s.calls("sparse.spmv.b64")), "count")
    m["sparse.read_matrix_market_s"] = (s.total("sparse.read_matrix_market"), "s")
    m["sparse.from_coordinates_s"] = (s.total("sparse.from_coordinates"), "s")
    m["sparse.downcast_ms"] = (s.total("sparse.downcast") * 1e3, "ms")

    iters, spmv_in_cg = {}, 0
    for p in ("b32", "b64"):
        solvers = (f"solver.cg.{p}", f"solver.pcg_jacobi.{p}")
        cg = s.mask(solvers[0]) | s.mask(solvers[1])
        iters[p] = s.counted(cg)
        per_iter = _ratio(float(s.duration[cg].sum()), iters[p]) * 1e6
        m[f"solver.cg_iter_us.{p}"] = (per_iter, "us")
        spmv = s.mask(f"sparse.spmv.{p}")
        spmv_in_cg += int((s.parent_is(spmv, solvers[0]) | s.parent_is(spmv, solvers[1])).sum())
    m["solver.mu_measured"] = (
        _ratio(m["solver.cg_iter_us.b32"][0], m["solver.cg_iter_us.b64"][0]),
        "b32/b64",
    )
    m["solver.spmv_per_iter"] = (_ratio(spmv_in_cg, iters["b32"] + iters["b64"]), "count")
    cg64 = s.mask("solver.cg.b64") | s.mask("solver.pcg_jacobi.b64")
    stage2 = s.parent_is(cg64, "solver.two_stage_solve")
    m["solver.iterations.stage1"] = (float(iters["b32"]), "count")
    m["solver.iterations.stage2"] = (float(s.counted(stage2)), "count")
    m["solver.iterations.binary64"] = (float(s.counted(cg64 & ~stage2)), "count")

    m["features.eigen_estimates_s"] = (s.total("features.eigen_estimates"), "s")
    m["features.pseudo_diameter_s"] = (s.total("features.pseudo_diameter"), "s")

    m["dataset.generate_s"] = (s.total("dataset.generate", "dataset.perturb"), "s")
    m["dataset.label_matrix_ms"] = (s.median("dataset.label_matrix") * 1e3, "ms")
    in_sweep = s.parent_is(s.mask("solver.two_stage_solve"), "dataset.label_matrix")
    m["dataset.two_stage_calls_per_matrix"] = (
        _ratio(int(in_sweep.sum()), s.calls("dataset.label_matrix")),
        "count",
    )
    m["dataset.write_sample_s"] = (s.total("dataset.write_sample"), "s")

    m["regression.fit_knn_s"] = (s.total("regression.fit_knn"), "s")
    m["regression.knn_predict_us"] = (s.median("regression.knn_predict") * 1e6, "us")
    m["regression.evaluate_s"] = (s.total("regression.evaluate"), "s")

    for command in ("generate", "label", "train", "evaluate"):
        m[f"cli.{command}_s"] = (s.total(f"cli.cmd_{command}"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (s.layer_self(layer), "s")
    m["trace.spans"] = (float(len(s)), "count")
    return m
