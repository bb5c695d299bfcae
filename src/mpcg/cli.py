"""Command-line front end.

Subcommands: features, solve, generate, label, train, evaluate.  Every run
is deterministic given its flags and seeds, and no subcommand mutates its
input files.  Exit codes: 2 configuration or validation problem, 3 runtime
failure (non-convergence), 4 missing model, 5 I/O failure.  ``main`` maps
exceptions to them; a subcommand catches only where its code differs:
``features`` reports an unreadable matrix as 2, and ``solve --eps1 auto``
a missing or malformed model as 4.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from . import dataset, regression
from ._fileio import atomic_write
from .errors import (
    CgBreakdownError,
    MissingCostEntryError,
    SinglePrecisionOverflowError,
    Stage2NotConvergedError,
)
from .features import eigen_estimates, extract_features, pseudo_diameter, spread
from .solver import SolveConfig, two_stage_solve
from .sparse import read_matrix_market

EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NO_MODEL = 4
EXIT_IO = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"cannot parse grid '{text}'") from None
    if not values:
        raise ValueError("grid is empty")
    return values


def _grid_from_args(args) -> dataset.EpsilonGrid:
    values = _parse_grid(args.grid) if args.grid else dataset.DEFAULT_GRID
    return dataset.EpsilonGrid(values=values, epsilon2=args.eps2, mu=args.mu)


def _config_from_args(args) -> SolveConfig:
    return SolveConfig(
        tolerance=args.eps2,
        preconditioner=args.precond,
        residual_mode=args.residual,
    )


def cmd_features(args) -> int:
    try:
        A = read_matrix_market(args.matrix)
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot read '{args.matrix}': {exc}")
    est = eigen_estimates(A)
    est_spread = spread(est)  # first, so a degenerate interval prints nothing
    print(f"n               = {A.n}")
    print(f"nnz             = {A.nnz}")
    print(f"pseudo_diameter = {pseudo_diameter(A)}")
    print(f"spread          = {est_spread:.17g}")
    print(f"lambda_max      = {est.combined.hi:.17g}")
    print(f"hull_basic      = [{est.basic.lo:.17g}, {est.basic.hi:.17g}]")
    print(f"hull_scaled1    = [{est.scaled1.lo:.17g}, {est.scaled1.hi:.17g}]")
    print(f"hull_scaled2    = [{est.scaled2.lo:.17g}, {est.scaled2.hi:.17g}]")
    print(f"hull_combined   = [{est.combined.lo:.17g}, {est.combined.hi:.17g}]")
    return 0


def _load_rhs(args, A) -> np.ndarray:
    if args.b == "ones":
        return dataset.ones_rhs(A)
    if args.b == "random":
        rng = np.random.default_rng(args.seed)
        return rng.standard_normal(A.n)
    with warnings.catch_warnings():  # an empty file is reported below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        b = np.loadtxt(args.b, dtype=np.float64).ravel()
    if not b.size:
        raise ValueError(f"--b {args.b}: the file holds no values")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"--b {args.b}: component {bad[0] + 1} is not finite")
    return b


def _check_eps1(eps1: float, eps2: float) -> None:
    if eps1 < eps2:
        raise ValueError(f"eps1={eps1:g} must be >= eps2={eps2:g}")


def cmd_solve(args) -> int:
    # Every flag before the matrix, so no bad one waits for a large read:
    # the solve configuration checks --eps2, and a grid of eps2 alone --mu.
    config = _config_from_args(args)
    dataset.EpsilonGrid((args.eps2,), args.eps2, args.mu)
    if args.eps1 == "auto":
        if not args.model:
            return _fail(EXIT_NO_MODEL, "--eps1 auto requires --model")
        try:
            model = regression.load_model(args.model)
        except (OSError, ValueError) as exc:
            return _fail(EXIT_NO_MODEL, f"cannot read model: {exc}")
    else:
        try:
            eps1 = float(args.eps1)
        except ValueError:
            eps1 = math.nan
        if not (math.isfinite(eps1) and eps1 > 0):
            return _fail(
                EXIT_CONFIG,
                f"--eps1 must be a finite positive number or 'auto', got '{args.eps1}'",
            )
        _check_eps1(eps1, args.eps2)
    A = read_matrix_market(args.matrix)
    b = _load_rhs(args, A)
    if args.eps1 == "auto":
        label = regression.knn_predict(model, extract_features(A))
        eps1 = model.grid_values[label - 1]
        print(f"predicted class = {label} (eps1 = {eps1:g})")
        _check_eps1(eps1, args.eps2)

    result = two_stage_solve(A, b, eps1, args.eps2, args.mu, config)
    print(f"N1             = {result.n1} ({result.stage1_status})")
    print(f"N2             = {result.n2} ({result.stage2_status})")
    print(f"cost           = {result.cost:g}")
    print(f"final_residual = {result.final_residual_norm:.17g}")
    print(f"spmv_stage1    = {result.stage1_spmv_calls}")
    print(f"spmv_stage2    = {result.stage2_spmv_calls}")
    print(f"seconds_stage1 = {result.stage1_seconds:.6f}")
    print(f"seconds_stage2 = {result.stage2_seconds:.6f}")
    if args.write_x:
        with atomic_write(args.write_x) as fh:
            np.savetxt(fh, result.x, fmt="%.17g")
    return 0


def cmd_generate(args) -> int:
    specs = dataset.plan_specs(
        total=args.count,
        n_range=(args.n_min, args.n_max),
        structured_fraction=args.structured_fraction,
        variants=args.variants,
        seed=args.seed,
    )
    dataset.write_specs(specs, args.out)
    matrices = sum(1 + s.variants for s in specs)
    print(f"wrote {len(specs)} specs ({matrices} matrices) to {args.out}")
    return 0


def cmd_label(args) -> int:
    if args.threads < 1:
        return _fail(EXIT_CONFIG, f"--threads must be at least 1, got {args.threads}")
    # Every flag before the specs, as in solve.
    grid = _grid_from_args(args)
    config = _config_from_args(args)
    specs = dataset.read_specs(args.specs)
    manifest = dataset.build_sample(
        specs, grid, args.out, config=config, threads=args.threads
    )
    print(
        f"labeled {manifest.records_valid}/{manifest.records_total} matrices "
        f"-> {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    # Every flag before the sample, as in solve: the split's and the model's
    # own checks, k's upper bound aside, which needs the training records.
    regression._check_test_fraction(args.test_fraction)
    regression._check_k(args.k)
    records = dataset.read_sample(args.sample)
    train, test = regression.split(
        records,
        test_fraction=args.test_fraction,
        seed=args.seed,
        group_aware=not args.record_split,
    )
    model = regression.fit_knn(
        train, args.k, test_ids=tuple(r.matrix_id for r in test)
    )
    regression.save_model(
        model,
        args.out,
        split={
            "seed": args.seed,
            "test_fraction": args.test_fraction,
            "group_aware": not args.record_split,
        },
    )
    print(
        f"trained k={args.k} model on {len(model.train_ids)} records "
        f"({len(test)} held out) -> {args.out}"
    )
    return 0


def cmd_evaluate(args) -> int:
    records = dataset.read_sample(args.sample)
    model = regression.load_model(args.model)
    if args.subset == "test":
        wanted = set(model.test_ids)
    elif args.subset == "train":
        wanted = set(model.train_ids)
    else:
        wanted = {r.matrix_id for r in records}
    chosen = [r for r in records if r.matrix_id in wanted]
    report = regression.evaluate(model, chosen)
    if args.out:
        regression.save_report(
            report, args.out, meta={"subset": args.subset, "k": model.k}
        )
        with atomic_write(str(args.out) + ".txt") as fh:
            fh.write(report.format_table() + "\n")
    print(report.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcg",
        description="Two-stage mixed-precision CG solver with learned eps1 selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--mu", type=float, default=0.5, help="stage-1 iteration weight")
    numeric.add_argument("--eps2", type=float, default=1e-10, help="final tolerance")
    numeric.add_argument(
        "--residual", choices=("relative", "absolute"), default="relative"
    )
    numeric.add_argument("--precond", choices=("none", "jacobi"), default="none")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("features", help="print the feature vector of a matrix")
    p.add_argument("matrix", help="Matrix Market file")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser(
        "solve", parents=[numeric, seeded], help="two-stage solve of one system"
    )
    p.add_argument("matrix", help="Matrix Market file")
    p.add_argument("--eps1", required=True, help="stage-1 tolerance or 'auto'")
    p.add_argument(
        "--b",
        default="ones",
        help="'ones' (b = A*1), 'random', or a path to a text vector",
    )
    p.add_argument("--model", default="", help="model file for --eps1 auto")
    p.add_argument("--write-x", default="", help="write the solution vector here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", parents=[seeded], help="plan a matrix sample")
    p.add_argument("--out", required=True, help="specs file to write (JSON lines)")
    p.add_argument("--count", type=int, default=550, help="target matrix count")
    p.add_argument("--n-min", type=int, default=200)
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--structured-fraction", type=float, default=0.27)
    p.add_argument("--variants", type=int, default=10, help="perturbations per base")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "label", parents=[numeric], help="sweep the grid and label every matrix"
    )
    p.add_argument("--specs", required=True, help="specs file from 'generate'")
    p.add_argument(
        "--grid", default="", help="comma-separated eps1 grid (default 1e-1..1e-7)"
    )
    p.add_argument("--out", required=True, help="sample file to write (JSON lines)")
    p.add_argument("--threads", type=int, default=1, help="parallel labeling workers")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", parents=[seeded], help="fit the kNN model")
    p.add_argument("--sample", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument(
        "--record-split",
        action="store_true",
        help="split at record level instead of keeping groups whole",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the model against stored sweeps")
    p.add_argument("--sample", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="", help="report file to write")
    p.add_argument(
        "--subset", choices=("test", "train", "all"), default="test",
        help="which side of the model's split to score",
    )
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (
        Stage2NotConvergedError,
        CgBreakdownError,
        SinglePrecisionOverflowError,
        MissingCostEntryError,
    ) as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
