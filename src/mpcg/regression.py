"""Nearest-neighbor prediction of the stage-1 tolerance class.

Feature vectors are mapped onto [0, 1]^5 with per-feature min-max
normalization fitted on the training sample, and test vectors are
classified by majority vote among the k nearest training vectors under
Euclidean distance.  Evaluation never re-solves anything: the cost of the
predicted class is read straight from the sweep stored in each record.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._fileio import read_json, write_json
from .dataset import SampleRecord
from .errors import (
    EmptyTrainingSetError,
    MissingCostEntryError,
    SampleTooSmallError,
)
from .features import FeatureVector

__all__ = [
    "KnnModel",
    "EvalRow",
    "EvalReport",
    "split",
    "fit_knn",
    "knn_predict",
    "evaluate",
    "save_model",
    "load_model",
    "save_report",
]


def split(
    records: list[SampleRecord],
    test_fraction: float = 0.1,
    seed: int = 0,
    group_aware: bool = True,
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Deterministic train/test split.

    With ``group_aware`` a base matrix and its perturbed variants always
    land on the same side, which keeps the test honest: variants of a
    training matrix sit almost on top of it in feature space.  Whole
    shuffled groups move to the test side until it holds round(fraction*N)
    records.  ``group_aware=False`` treats every record as its own group.
    """
    _check_test_fraction(test_fraction)
    if not records:
        raise SampleTooSmallError("no records to split")
    members: dict = {}
    for i, rec in enumerate(records):
        key = rec.group_id if group_aware else i
        members.setdefault(key, []).append(i)
    keys = list(members)
    target = int(np.floor(test_fraction * len(records) + 0.5))
    if target < 1:
        raise SampleTooSmallError("test side would be empty")
    rng = np.random.default_rng(seed)
    test_positions: set[int] = set()
    for pos in rng.permutation(len(keys)):
        if len(test_positions) >= target:
            break
        test_positions.update(members[keys[pos]])
    train = [r for i, r in enumerate(records) if i not in test_positions]
    test = [r for i, r in enumerate(records) if i in test_positions]
    if not train:
        raise SampleTooSmallError("train side would be empty")
    return train, test


def _check_test_fraction(test_fraction: float) -> None:
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")


def _check_k(k: int, points: float = math.inf) -> None:
    """k must be an int from 1 to the number of training points."""
    if type(k) is not int or not 1 <= k <= points:
        raise ValueError("k must be an integer in 1..len(points)")


@dataclass
class KnnModel:
    """Per-feature minima and maxima of the training vectors, the training
    points scaled by them onto [0, 1]^5 with their labels, and k."""

    mins: np.ndarray  # (5,)
    maxs: np.ndarray  # (5,)
    points: np.ndarray  # (N, 5) in [0, 1]
    labels: np.ndarray  # (N,) grid class labels
    k: int
    grid_values: tuple[float, ...]
    train_ids: tuple[str, ...] = ()
    test_ids: tuple[str, ...] = ()

    def __post_init__(self):
        n, width = self.labels.size, len(dataclasses.fields(FeatureVector))
        shapes = (self.points.shape, self.labels.shape, self.mins.shape, self.maxs.shape)
        if shapes != ((n, width), (n,), (width,), (width,)):
            raise ValueError(f"array shapes {shapes} do not fit {n} labels of {width} features")
        grid = self.grid_values
        if not (
            isinstance(grid, tuple)
            and grid
            and all(isinstance(v, float) and 0 < v < math.inf for v in grid)
            and all(a > b for a, b in zip(grid, grid[1:]))
        ):
            raise ValueError(
                f"grid_values {grid!r} must be finite positive floats in strictly"
                " descending order")
        labels = self.labels
        if labels.dtype.kind not in "iu" or np.any((labels < 1) | (labels > len(grid))):
            raise ValueError(f"labels must be integers in 1..{len(grid)}")
        _check_k(self.k, n)


def _as_array(chi) -> np.ndarray:
    return chi.as_array() if isinstance(chi, FeatureVector) else np.asarray(chi, dtype=float)


def _scale(mins: np.ndarray, maxs: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Feature vectors ``chi``, one or a row each, mapped onto [0, 1] per
    feature.  A feature that was constant on the training sample maps to
    0.5; values outside the training range clamp to the nearest endpoint.
    """
    span = maxs - mins
    degenerate = span == 0
    scaled = np.where(degenerate, 0.5, (chi - mins) / np.where(degenerate, 1.0, span))
    return np.clip(scaled, 0.0, 1.0)


def _usable(records: list[SampleRecord], grid=None) -> tuple[list[SampleRecord], tuple]:
    """The valid records and the grid of eps1 values they were swept on,
    ``grid`` or else the first one's.  A record swept on another raises
    MissingCostEntryError against ``grid``, ValueError against the first."""
    usable = [r for r in records if r.valid]
    error = ValueError if grid is None else MissingCostEntryError
    for r in usable:
        swept = tuple(e.epsilon1 for e in r.grid_entries)
        grid = swept if grid is None else grid
        if swept != grid:
            raise error(f"records swept on different grids: {r.matrix_id} on {swept}, not {grid}")
    return usable, grid


def fit_knn(
    train: list[SampleRecord], k: int, test_ids: tuple[str, ...] = ()
) -> KnnModel:
    """Build the model from the valid training records."""
    usable, grid = _usable(train)
    if not usable:
        raise EmptyTrainingSetError("no valid labeled records")
    raw = np.stack([_as_array(r.features) for r in usable])
    mins, maxs = raw.min(axis=0), raw.max(axis=0)
    labels = np.array([r.label for r in usable], dtype=np.int64)
    return KnnModel(
        mins=mins,
        maxs=maxs,
        points=_scale(mins, maxs, raw),
        labels=labels,
        k=k,
        grid_values=grid,
        train_ids=tuple(r.matrix_id for r in usable),
        test_ids=test_ids,
    )


def knn_predict(model: KnnModel, chi) -> int:
    """Majority vote among the k nearest training points.

    Equal distances are resolved by training order (stable sort); a tied
    vote goes to the class with the larger eps1, matching how labels break
    their own ties.
    """
    q = _scale(model.mins, model.maxs, _as_array(chi))
    d2 = np.einsum("ij,ij->i", model.points - q, model.points - q)
    nearest = np.argsort(d2, kind="stable")[: model.k]
    votes = np.bincount(model.labels[nearest], minlength=len(model.grid_values) + 1)
    return int(np.nonzero(votes == votes.max())[0][0])


@dataclass
class EvalRow:
    matrix_id: str
    true_label: int
    predicted_label: int
    i_opt: float
    i_knn: float
    i_wrst: float


@dataclass
class EvalReport:
    rows: list[EvalRow]
    n_opt: float
    n_knn: float
    n_wrst: float
    ratio_opt_wrst: float
    ratio_knn_wrst: float
    diff_knn_opt: float
    diff_wrst_knn: float
    confusion: np.ndarray  # true class x predicted class, 1-based labels

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "confusion": self.confusion.tolist()}

    def format_table(self) -> str:
        lines = [
            f"matrices evaluated : {len(self.rows)}",
            f"N_Opt  = {self.n_opt:12.1f}",
            f"N_kNN  = {self.n_knn:12.1f}",
            f"N_Wrst = {self.n_wrst:12.1f}",
            f"N_Opt / N_Wrst = {self.ratio_opt_wrst:.4f}",
            f"N_kNN / N_Wrst = {self.ratio_knn_wrst:.4f}",
            f"N_kNN - N_Opt  = {self.diff_knn_opt:.1f}",
            f"N_Wrst - N_kNN = {self.diff_wrst_knn:.1f}",
            "full-scale reference ratios: 0.86 / 0.86",
            "confusion (rows true class, cols predicted):",
        ]
        c = self.confusion
        width = max(3, len(str(int(c.max(initial=0)))))
        header = "     " + " ".join(f"{j:>{width}}" for j in range(1, c.shape[1] + 1))
        lines.append(header)
        for i in range(c.shape[0]):
            lines.append(
                f"  {i + 1:>2} "
                + " ".join(f"{int(v):>{width}}" for v in c[i])
            )
        return "\n".join(lines)


def evaluate(model: KnnModel, test: list[SampleRecord]) -> EvalReport:
    """Score predictions against the stored sweeps of the valid test
    records, which must be swept on the model's grid: the predicted
    class's cost is the record's grid entry at that class."""
    n_classes = len(model.grid_values)
    usable, _ = _usable(test, model.grid_values)
    if not usable:
        raise SampleTooSmallError("no valid records to evaluate")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    rows = []
    for rec in usable:
        pred = knn_predict(model, rec.features)
        i_knn = rec.grid_entries[pred - 1].cost
        rows.append(EvalRow(rec.matrix_id, rec.label, pred, rec.i_opt, i_knn, rec.i_wrst))
        confusion[rec.label - 1, pred - 1] += 1
    n_opt = float(sum(r.i_opt for r in rows))
    n_knn = float(sum(r.i_knn for r in rows))
    n_wrst = float(sum(r.i_wrst for r in rows))
    return EvalReport(
        rows=rows,
        n_opt=n_opt,
        n_knn=n_knn,
        n_wrst=n_wrst,
        ratio_opt_wrst=n_opt / n_wrst,
        ratio_knn_wrst=n_knn / n_wrst,
        diff_knn_opt=n_knn - n_opt,
        diff_wrst_knn=n_wrst - n_knn,
        confusion=confusion,
    )


def save_model(model: KnnModel, path, split: dict | None = None) -> None:
    """Persist the model; ``split`` echoes the settings that produced it."""
    payload = {
        "format_version": 1,
        "k": model.k,
        "grid_values": list(model.grid_values),
        "mins": model.mins.tolist(),
        "maxs": model.maxs.tolist(),
        "points": model.points.tolist(),
        "labels": model.labels.tolist(),
        "train_ids": list(model.train_ids),
        "test_ids": list(model.test_ids),
        "split": split,
    }
    write_json(path, payload, indent=1)


def load_model(path) -> KnnModel:
    """Model written by ``save_model``; a malformed file, a non-finite
    number among them, raises ValueError."""
    try:
        payload = read_json(path)
        return KnnModel(
            mins=np.array(payload["mins"], dtype=float),
            maxs=np.array(payload["maxs"], dtype=float),
            points=np.array(payload["points"], dtype=float),
            labels=np.array(payload["labels"]),
            k=payload["k"],
            grid_values=tuple(payload["grid_values"]),
            train_ids=tuple(payload["train_ids"]),
            test_ids=tuple(payload["test_ids"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file '{path}': {exc!r}") from None


def save_report(report: EvalReport, path, meta: dict | None = None) -> None:
    payload = report.to_dict()
    if meta:
        payload["meta"] = meta
    write_json(path, payload)
