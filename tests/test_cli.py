import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mpcg.cli import main
from mpcg.dataset import EpsilonGrid, GraphSpec, generate, manifest_path
from mpcg.solver import sweep
from mpcg.sparse import from_coordinates, write_matrix_market


@pytest.fixture
def identity_file(tmp_path):
    p = tmp_path / "identity.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "4 4 4\n1 1 1.0\n2 2 1.0\n3 3 1.0\n4 4 1.0\n"
    )
    return p


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 5\n1 1 3.0\n2 1 1.0\n2 2 3.0\n3 2 1.0\n3 3 3.0\n"
    )
    return p


def model_json(**changes) -> str:
    """A one-point model over a two-value grid, with ``changes`` applied."""
    payload = {
        "format_version": 1, "k": 1, "grid_values": [0.1, 0.01],
        "mins": [0.0] * 5, "maxs": [1.0] * 5, "points": [[0.5] * 5],
        "labels": [2], "train_ids": ["s00000"], "test_ids": [], "split": None,
    }
    payload.update(changes)
    return json.dumps(payload)


MALFORMED_MODELS = (
    {"labels": [9]},
    {"mins": [0.0] * 4, "maxs": [1.0] * 4, "points": [[0.5] * 4]},
)

BAD_GRIDS = {"string": ["a", "b"], "ascending": [0.01, 0.1], "repeated": [0.1, 0.1]}

# ``label --grid`` values that fail, and what the error says
BAD_LABEL_GRIDS = {
    "1e-2,nan": "eps1 must be finite, got nan",
    "1e-2,inf": "eps1 must be finite, got inf",
    "1e-2,x": "cannot parse grid '1e-2,x'",
    ",": "grid is empty",
}


def sample_json(**changes) -> str:
    """One valid record swept over ``model_json``'s grid, whose one point
    predicts class 2, with ``changes`` applied."""
    record = {
        "matrix_id": "s00000", "group_id": "s00000", "spec": None,
        "features": {"n": 4, "nnz": 4, "pseudo_diameter": 0, "spread": 0.0,
                     "lambda_max": 1.0},
        "costs": [
            {"epsilon1": 0.1, "n1": 1, "n2": 9, "cost": 9.5},
            {"epsilon1": 0.01, "n1": 2, "n2": 8, "cost": 9.0},
            {"epsilon1": None, "n1": 0, "n2": 10, "cost": 10.0},
        ],
        "label": 2, "i_opt": 9.0, "i_wrst": 9.5, "valid": True,
    }
    record.update(changes)
    return json.dumps(record) + "\n"


@pytest.fixture
def inputs(tmp_path, identity_file):
    """Paths for the exit-code table: readable inputs and one that is missing."""
    paths = {
        "identity": identity_file,
        "missing": tmp_path / "missing" / "input",
        "out": tmp_path / "out.json",
        "model": tmp_path / "model.json",
        "sample": tmp_path / "sample.jsonl",
        "inconsistent": tmp_path / "inconsistent.jsonl",
        "nan_model": tmp_path / "nan_model.json",
        "nan_sample": tmp_path / "nan_sample.jsonl",
        "big_model": tmp_path / "big_model.json",
        "big_sample": tmp_path / "big_sample.jsonl",
        "huge": tmp_path / "huge.mtx",
        "label_beyond": tmp_path / "label_beyond.jsonl",
        "label_zero": tmp_path / "label_zero.jsonl",
        "label_half": tmp_path / "label_half.jsonl",
        "k_half_model": tmp_path / "k_half_model.json",
        "k_true_model": tmp_path / "k_true_model.json",
        "label_half_model": tmp_path / "label_half_model.json",
        "one_class": tmp_path / "one_class.jsonl",
        "two_grids": tmp_path / "two_grids.jsonl",
    }
    paths["model"].write_text(model_json())
    paths["sample"].write_text(sample_json())
    paths["inconsistent"].write_text(sample_json(i_opt=10.5))  # i_wrst + 1
    # json writes NaN and Infinity tokens, which Python's json reads back.
    paths["nan_model"].write_text(
        model_json(points=[[math.nan] + [0.5] * 4], mins=[0.0, 0.0, math.inf, 0.0, 0.0]))
    features = json.loads(sample_json())["features"]
    paths["nan_sample"].write_text(sample_json(features={**features, "spread": math.nan}))
    # json writes an int in full: 401 digits, beyond any binary64.
    paths["big_model"].write_text(model_json(points=[[10**400] + [0.5] * 4]))
    paths["big_sample"].write_text(sample_json(features={**features, "lambda_max": -10**400}))
    paths["huge"].write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n1 1 1e39\n2 1 1.0\n2 2 3.0\n"
    )
    # labels outside the two-class grid, and one that is not an integer
    paths["label_beyond"].write_text(sample_json(label=3))
    paths["label_zero"].write_text(sample_json(label=0))
    paths["label_half"].write_text(
        sample_json(label=2.5) + sample_json(matrix_id="s00001", group_id="s00001", label=2.5))
    # three points, so that k = 2.5 passes the range check
    paths["k_half_model"].write_text(model_json(k=2.5, points=[[0.5] * 5] * 3, labels=[2] * 3))
    paths["k_true_model"].write_text(model_json(k=True))
    paths["label_half_model"].write_text(model_json(labels=[2.5]))
    # a record swept on 0.01 alone; and two such, two on the model's grid
    paths["one_class"].write_text(sample_json(costs=SAMPLE_COSTS[1:], label=1, i_wrst=9.0))
    paths["two_grids"].write_text("".join(
        sample_json(matrix_id=f"s0000{i}", group_id=f"s0000{i}",
                    **({"costs": SAMPLE_COSTS[1:], "label": 1, "i_wrst": 9.0} if i % 2 else {}))
        for i in range(4)))
    return {name: str(path) for name, path in paths.items()}


# (command line, exit code, what stderr names); "{name}" stands for a path
# of the ``inputs`` fixture.
EXIT_CODE_CASES = {
    "solve-unreadable-matrix": (["solve", "{missing}", "--eps1", "0.1"], 5, "{missing}"),
    "solve-unreadable-rhs": (
        ["solve", "{identity}", "--eps1", "0.1", "--b", "{missing}"], 5, "{missing}"),
    # numpy rejects a negative seed only where it is used, after the read
    "train-negative-seed": (
        ["train", "--sample", "{missing}", "--out", "{out}", "--seed", "-1"], 2, "--seed"),
    "solve-negative-seed": (
        ["solve", "{missing}", "--eps1", "0.1", "--b", "random", "--seed", "-1"], 2, "--seed"),
    "label-unreadable-specs": (["label", "--specs", "{missing}", "--out", "{out}"], 5,
                               "{missing}"),
    "train-unreadable-sample": (["train", "--sample", "{missing}", "--out", "{out}"], 5,
                                "{missing}"),
    "evaluate-unreadable-sample": (
        ["evaluate", "--sample", "{missing}", "--model", "{model}"], 5, "{missing}"),
    "evaluate-unreadable-model": (
        ["evaluate", "--sample", "{sample}", "--model", "{missing}"], 5, "{missing}"),
    "solve-binary32-overflow": (["solve", "{huge}", "--eps1", "0.1"], 3, "value 1e+39"),
    "evaluate-inconsistent-record": (
        ["evaluate", "--sample", "{inconsistent}", "--model", "{model}", "--subset", "all"],
        2, "{inconsistent}:1: ValueError('i_opt 10.5 is not the 9.0 its costs give')"),
    "solve-auto-non-finite-model": (
        ["solve", "{identity}", "--eps1", "auto", "--model", "{nan_model}"], 4,
        "'{nan_model}': ValueError('non-finite number Infinity')"),
    "evaluate-non-finite-model": (
        ["evaluate", "--sample", "{sample}", "--model", "{nan_model}"], 2,
        "'{nan_model}': ValueError('non-finite number Infinity')"),
    "train-non-finite-sample": (
        ["train", "--sample", "{nan_sample}", "--out", "{out}"], 2,
        "{nan_sample}:1: ValueError('non-finite number NaN')"),
    "solve-auto-integer-overflow-model": (
        ["solve", "{identity}", "--eps1", "auto", "--model", "{big_model}"], 4,
        "'{big_model}': ValueError('integer of 401 characters beyond the binary64 range')"),
    "evaluate-integer-overflow-model": (
        ["evaluate", "--sample", "{sample}", "--model", "{big_model}"], 2,
        "'{big_model}': ValueError('integer of 401 characters beyond the binary64 range')"),
    "train-integer-overflow-sample": (
        ["train", "--sample", "{big_sample}", "--out", "{out}"], 2,
        "{big_sample}:1: ValueError('integer of 402 characters beyond the binary64 range')"),
    "evaluate-label-beyond-grid": (
        ["evaluate", "--sample", "{label_beyond}", "--model", "{model}", "--subset", "all"],
        2, "{label_beyond}:1: ValueError('label 3 is not the 2 its costs give')"),
    "evaluate-label-zero": (
        ["evaluate", "--sample", "{label_zero}", "--model", "{model}", "--subset", "all"],
        2, "{label_zero}:1: ValueError('label 0 is not the 2 its costs give')"),
    "train-different-grids": (
        ["train", "--sample", "{two_grids}", "--out", "{out}", "--k", "1",
         "--test-fraction", "0.25"],
        2, "records swept on different grids: s00001 on (0.01,), not (0.1, 0.01)"),
    "evaluate-other-grid": (
        ["evaluate", "--sample", "{one_class}", "--model", "{model}", "--subset", "all"],
        3, "records swept on different grids: s00000 on (0.01,), not (0.1, 0.01)"),
    "train-fractional-label": (
        ["train", "--sample", "{label_half}", "--out", "{out}", "--k", "1",
         "--test-fraction", "0.5"],
        2, "{label_half}:1: ValueError('label must be an integer, got 2.5')"),
    "solve-auto-fractional-k-model": (
        ["solve", "{identity}", "--eps1", "auto", "--model", "{k_half_model}"], 4,
        "'{k_half_model}': ValueError('k must be an integer in 1..len(points)')"),
    "evaluate-fractional-k-model": (
        ["evaluate", "--sample", "{sample}", "--model", "{k_half_model}"], 2,
        "'{k_half_model}': ValueError('k must be an integer in 1..len(points)')"),
    "solve-auto-boolean-k-model": (
        ["solve", "{identity}", "--eps1", "auto", "--model", "{k_true_model}"], 4,
        "'{k_true_model}': ValueError('k must be an integer in 1..len(points)')"),
    "evaluate-boolean-k-model": (
        ["evaluate", "--sample", "{sample}", "--model", "{k_true_model}"], 2,
        "'{k_true_model}': ValueError('k must be an integer in 1..len(points)')"),
    "solve-auto-fractional-label-model": (
        ["solve", "{identity}", "--eps1", "auto", "--model", "{label_half_model}"], 4,
        "'{label_half_model}': ValueError('labels must be integers in 1..2')"),
    "evaluate-fractional-label-model": (
        ["evaluate", "--sample", "{sample}", "--model", "{label_half_model}"], 2,
        "'{label_half_model}': ValueError('labels must be integers in 1..2')"),
    "solve-auto-without-model-before-matrix": (
        ["solve", "{missing}", "--eps1", "auto"], 4, "--eps1 auto requires --model"),
    "solve-auto-unreadable-model-before-matrix": (
        ["solve", "{missing}", "--eps1", "auto", "--model", "{missing}"], 4,
        "cannot read model"),
    # each bad flag of solve exits 2 before the matrix is read
    "solve-mu-above-one-before-matrix": (
        ["solve", "{missing}", "--eps1", "1e-3", "--mu", "2"], 2, "mu must lie in (0, 1)"),
    "solve-mu-nan-before-matrix": (
        ["solve", "{missing}", "--eps1", "1e-3", "--mu", "nan"], 2, "mu must lie in (0, 1)"),
    "solve-eps2-negative-before-matrix": (
        ["solve", "{missing}", "--eps1", "1e-3", "--eps2", "-1"], 2,
        "eps2 must be positive and finite, got -1"),
    "solve-eps2-nan-before-matrix": (
        ["solve", "{missing}", "--eps1", "1e-3", "--eps2", "nan"], 2,
        "eps2 must be positive and finite, got nan"),
    "solve-eps1-below-eps2-before-matrix": (
        ["solve", "{missing}", "--eps1", "1e-12"], 2, "eps1=1e-12 must be >= eps2=1e-10"),
    "solve-auto-mu-before-matrix": (
        ["solve", "{missing}", "--eps1", "auto", "--model", "{model}", "--mu", "0"], 2,
        "mu must lie in (0, 1)"),
    "solve-auto-eps2-before-matrix": (
        ["solve", "{missing}", "--eps1", "auto", "--model", "{model}", "--eps2", "inf"], 2,
        "eps2 must be positive and finite, got inf"),
    # and each of label and train before its input is read
    "label-mu-before-specs": (
        ["label", "--specs", "{missing}", "--out", "{out}", "--mu", "2"], 2,
        "mu must lie in (0, 1)"),
    "label-eps2-before-specs": (
        ["label", "--specs", "{missing}", "--out", "{out}", "--eps2", "0"], 2,
        "eps2 must be positive and finite, got 0"),
    "label-grid-before-specs": (
        ["label", "--specs", "{missing}", "--out", "{out}", "--grid", "0.1,x"], 2,
        "cannot parse grid '0.1,x'"),
    "train-k-zero-before-sample": (
        ["train", "--sample", "{missing}", "--out", "{out}", "--k", "0"], 2,
        "k must be an integer in 1..len(points)"),
    "train-test-fraction-before-sample": (
        ["train", "--sample", "{missing}", "--out", "{out}", "--test-fraction", "1"], 2,
        "test_fraction must lie in (0, 1)"),
    "generate-variants-minus-one": (
        ["generate", "--out", "{out}", "--count", "30", "--variants", "-1"], 2,
        "variants must be nonnegative"),
    "generate-variants-minus-two": (
        ["generate", "--out", "{out}", "--count", "30", "--variants", "-2"], 2,
        "variants must be nonnegative"),
}

# Sample records with a number of the wrong type: each is rejected where the
# sample is read, as the ValueError below, at its path:line.
SAMPLE_FEATURES = json.loads(sample_json())["features"]
SAMPLE_COSTS = json.loads(sample_json())["costs"]
BAD_RECORDS = {
    "cost-string": (sample_json(costs=[{**SAMPLE_COSTS[0], "cost": "5"}, *SAMPLE_COSTS[1:]]),
                    "cost must be a finite number, got '5'"),
    "spread-null": (sample_json(features={**SAMPLE_FEATURES, "spread": None}),
                    "spread must be a finite number, got None"),
    "n-string": (sample_json(features={**SAMPLE_FEATURES, "n": "abc"}),
                 "n must be an integer, got 'abc'"),
    "n2-bool": (sample_json(costs=[*SAMPLE_COSTS[:2], {**SAMPLE_COSTS[2], "n2": True}]),
                "n2 must be an integer, got True"),
    "i-opt-string": (sample_json(i_opt="9.0"), "i_opt must be a finite number, got '9.0'"),
    "valid-string": (sample_json(valid="false"), "valid must be a bool, got 'false'"),
}

BAD_SPECS = {
    "n-float": '{"family": "path", "n": 10.5}',
    "seed-float": '{"family": "path", "n": 10, "seed": 1.5}',
    "constant-not-dominant": '{"family": "grid2d", "n": 12, '
    '"diagonal_strategy": "uniform_constant", "constant": 3.0}',
    # a divisor search over 10**10 candidates, unless the size bound comes first
    "grid2d-huge": '{"family": "grid2d", "n": 100000000000000000000}',
    "grid2d-huge-constant": '{"family": "grid2d", "n": 100000000000000000000, '
    '"diagonal_strategy": "uniform_constant", "constant": 5.0}',
}


class TestFeaturesCommand:
    def test_identity(self, identity_file, capsys):
        assert main(["features", str(identity_file)]) == 0
        out = capsys.readouterr().out
        assert "n               = 4" in out
        assert "pseudo_diameter = 0" in out
        assert "spread          = 0" in out
        assert "lambda_max      = 1" in out

    def test_p3_values(self, p3_file, capsys):
        assert main(["features", str(p3_file)]) == 0
        assert capsys.readouterr().out == (
            "n               = 3\n"
            "nnz             = 7\n"
            "pseudo_diameter = 2\n"
            "spread          = 0.66666666666666663\n"
            "lambda_max      = 5\n"
            "hull_basic      = [1, 5]\n"
            "hull_scaled1    = [1, 5]\n"
            "hull_scaled2    = [1, 5]\n"
            "hull_combined   = [1, 5]\n"
        )

    def test_grid2d_full_output(self, tmp_path, capsys):
        # thin margins: the three hulls differ, and the combined one takes
        # its ends from two of them
        path = tmp_path / "grid.mtx"
        write_matrix_market(generate(GraphSpec("grid2d", 30, seed=2, delta_range=(0.01, 0.1))),
                            path)
        assert main(["features", str(path)]) == 0
        assert capsys.readouterr().out == (
            "n               = 30\n"
            "nnz             = 128\n"
            "pseudo_diameter = 9\n"
            "spread          = 0.99629739545349694\n"
            "lambda_max      = 8.0675615625555253\n"
            "hull_basic      = [0.014963196459976125, 8.0970692357244296]\n"
            "hull_scaled1    = [-1.0010043063010046, 8.0675615625555253]\n"
            "hull_scaled2    = [-0.61505133429749037, 8.7795767012380868]\n"
            "hull_combined   = [0.014963196459976125, 8.0675615625555253]\n"
        )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["features", str(tmp_path / "nope.mtx")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("garbage\n")
        assert main(["features", str(p)]) == 2

    def test_nan_value_exits_2(self, tmp_path, capsys):
        p = tmp_path / "nan.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 nan\n"
        )
        assert main(["features", str(p)]) == 2
        captured = capsys.readouterr()
        assert "line 3" in captured.err and "nan" not in captured.out


class TestSolveCommand:
    def test_identity_solve(self, identity_file, capsys):
        assert main(["solve", str(identity_file), "--eps1", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "N1             = 1" in out
        assert "cost" in out

    def test_eps1_below_eps2_exits_2(self, identity_file):
        assert main(["solve", str(identity_file), "--eps1", "1e-12"]) == 2

    def test_auto_without_model_exits_4(self, identity_file):
        assert main(["solve", str(identity_file), "--eps1", "auto"]) == 4

    def test_auto_with_missing_model_file_exits_4(self, identity_file, tmp_path):
        missing = tmp_path / "no-model.json"
        assert (
            main(
                ["solve", str(identity_file), "--eps1", "auto", "--model", str(missing)]
            )
            == 4
        )

    def test_write_solution(self, tmp_path, identity_file):
        out = tmp_path / "x.txt"
        assert (
            main(["solve", str(identity_file), "--eps1", "0.1", "--write-x", str(out)])
            == 0
        )
        x = np.loadtxt(out)
        np.testing.assert_allclose(x, np.ones(4))

    def test_rhs_file_solves(self, identity_file, tmp_path):
        b, x = tmp_path / "b.txt", tmp_path / "x.txt"
        b.write_text("1.0\n2.0\n3.0\n4.0\n")
        argv = ["solve", str(identity_file), "--eps1", "0.1", "--b", str(b), "--write-x", str(x)]
        assert main(argv) == 0
        np.testing.assert_array_equal(np.loadtxt(x), [1.0, 2.0, 3.0, 4.0])

    def test_empty_rhs_file_exits_2(self, identity_file, tmp_path, capsys):
        # np.loadtxt warns on an empty file; the CLI reports it instead
        b = tmp_path / "b.txt"
        b.write_text("")
        assert main(["solve", str(identity_file), "--eps1", "0.1", "--b", str(b)]) == 2
        assert f"--b {b}: the file holds no values" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1 2\n3 4\n", "1\n2\n3\n4 5\n", "1\n2\nx\n4\n"],
                             ids=["two-columns", "ragged", "no-number"])
    def test_rhs_file_not_one_value_per_line_exits_2(self, identity_file, tmp_path, capsys, text):
        b = tmp_path / "b.txt"
        b.write_text(text)
        assert main(["solve", str(identity_file), "--eps1", "0.1", "--b", str(b)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --b {b}: ")

    def test_non_finite_rhs_exits_2(self, identity_file, tmp_path, capsys):
        b = tmp_path / "b.txt"
        b.write_text("1.0\n1.0\nnan\n1.0\n")
        assert main(["solve", str(identity_file), "--eps1", "0.1", "--b", str(b)]) == 2
        assert "component 3 is not finite" in capsys.readouterr().err

    def test_auto_with_malformed_model_exits_4(self, identity_file, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"k": 5}\n')
        argv = ["solve", str(identity_file), "--eps1", "auto", "--model", str(model)]
        assert main(argv) == 4

    def test_auto_with_well_formed_model_solves(self, identity_file, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(model_json())
        argv = ["solve", str(identity_file), "--eps1", "auto", "--model", str(model)]
        assert main(argv) == 0

    @pytest.mark.parametrize("changes", MALFORMED_MODELS, ids=["off-grid", "4-wide"])
    def test_auto_with_inconsistent_model_exits_4(
        self, identity_file, tmp_path, capsys, changes
    ):
        model = tmp_path / "model.json"
        model.write_text(model_json(**changes))
        argv = ["solve", str(identity_file), "--eps1", "auto", "--model", str(model)]
        assert main(argv) == 4
        assert "malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
    def test_auto_with_bad_grid_exits_4(self, identity_file, tmp_path, capsys, grid):
        model = tmp_path / "model.json"
        model.write_text(model_json(grid_values=BAD_GRIDS[grid]))
        argv = ["solve", str(identity_file), "--eps1", "auto", "--model", str(model)]
        assert main(argv) == 4
        assert "malformed model file" in capsys.readouterr().err

    def test_prints_spmv_counts_per_stage(self, identity_file, capsys):
        assert main(["solve", str(identity_file), "--eps1", "0.1"]) == 0
        out = capsys.readouterr().out
        # Stage 1 meets eps1 at its first iteration, whose recursive residual
        # is at or below the threshold, so it tests there: b - A x0, then A d and
        # b - A x.  Stage 2 starts at the exact solution.
        assert "spmv_stage1    = 3" in out
        assert "spmv_stage2    = 1" in out

    def test_prints_wall_seconds_per_stage(self, identity_file, capsys):
        assert main(["solve", str(identity_file), "--eps1", "0.1"]) == 0
        out = capsys.readouterr().out.splitlines()
        fields = {key.strip(): value for key, value in (line.split("=") for line in out)}
        assert float(fields["seconds_stage1"]) > 0 and float(fields["seconds_stage2"]) > 0

    @pytest.mark.parametrize("eps1, message", [
        ("nan", "eps1 must be finite, got nan"),
        ("inf", "eps1 must be finite, got inf"),
        ("-inf", "eps1 must be finite, got -inf"),
        ("0", "eps1=0 must be >= eps2=1e-10"),
        ("-0.1", "eps1=-0.1 must be >= eps2=1e-10"),
        ("abc", "--eps1 must be a number or 'auto', got 'abc'"),
    ], ids=["nan", "inf", "-inf", "0", "-0.1", "abc"])
    def test_eps1_not_finite_positive_exits_2(self, identity_file, capsys, eps1, message):
        assert main(["solve", str(identity_file), f"--eps1={eps1}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_grid_is_not_a_solve_flag(self, identity_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(identity_file), "--eps1", "0.1", "--grid", "1e-1"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_non_spd_matrix_exits_3(self, tmp_path):
        p = tmp_path / "indef.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 2 -1.0\n"
        )
        assert main(["solve", str(p), "--eps1", "0.1", "--b", "random"]) == 3


class TestBadInputFiles:
    def test_unknown_spec_key_exits_2(self, tmp_path, capsys):
        specs = tmp_path / "specs.jsonl"
        specs.write_text('{"family": "path", "n": 10, "bogus": 1}\n')
        out = tmp_path / "sample.jsonl"
        assert main(["label", "--specs", str(specs), "--out", str(out)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_invalid_spec_exits_2_before_labelling(self, tmp_path, capsys):
        specs = tmp_path / "specs.jsonl"
        specs.write_text(
            '{"family": "path", "n": 10}\n\n{"family": "nope", "n": 10}\n'
        )
        out = tmp_path / "sample.jsonl"
        assert main(["label", "--specs", str(specs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{specs}:3" in err and "unknown family 'nope'" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_spec_that_cannot_generate_exits_2(self, tmp_path, capsys, spec):
        specs = tmp_path / "specs.jsonl"
        specs.write_text(spec + "\n")
        out = tmp_path / "sample.jsonl"
        start = time.perf_counter()
        assert main(["label", "--specs", str(specs), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"bad spec at {specs}:1: " in capsys.readouterr().err
        assert not out.exists()

    def test_label_takes_a_grid(self, tmp_path, capsys):
        specs = tmp_path / "specs.jsonl"
        specs.write_text('{"family": "path", "n": 10}\n')
        out = tmp_path / "sample.jsonl"
        argv = ["label", "--specs", str(specs), "--out", str(out), "--grid", "1e-2,1e-1"]
        assert main(argv) == 0
        assert json.loads(Path(manifest_path(out)).read_text())["grid_values"] == [0.1, 0.01]

    @pytest.mark.parametrize("grid", sorted(BAD_LABEL_GRIDS))
    def test_label_with_non_finite_grid_exits_2(self, tmp_path, capsys, grid):
        specs = tmp_path / "specs.jsonl"
        specs.write_text('{"family": "path", "n": 10}\n')
        out = tmp_path / "sample.jsonl"
        argv = ["label", "--specs", str(specs), "--out", str(out), "--grid", grid]
        assert main(argv) == 2
        assert BAD_LABEL_GRIDS[grid] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [specs]  # no sample, no manifest

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        specs = tmp_path / "specs.jsonl"
        specs.write_text('{"family": "path", "n": 10}\n')
        out = tmp_path / "sample.jsonl"
        argv = ["label", "--specs", str(specs), "--out", str(out), "--threads", threads]
        assert main(argv) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_generation_failure_is_logged_and_skipped(self, tmp_path, capsys):
        # A valid spec whose perturbation finds no non-edges left.
        specs = tmp_path / "specs.jsonl"
        specs.write_text(
            '{"family": "path", "n": 4, "variants": 2, "edges_to_add": 9}\n'
            '{"family": "path", "n": 10}\n'
        )
        out = tmp_path / "sample.jsonl"
        assert main(["label", "--specs", str(specs), "--out", str(out)]) == 0
        assert "labeled 1/1" in capsys.readouterr().out

    def test_output_in_missing_directory_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "missing" / "specs.jsonl"
        assert main(["generate", "--out", str(out), "--count", "10"]) == 5
        err = capsys.readouterr().err
        assert f"'{out}'" in err and ".tmp" not in err

    def test_evaluate_with_malformed_model_exits_2(self, tmp_path):
        sample, model = tmp_path / "sample.jsonl", tmp_path / "model.json"
        sample.write_text("")
        model.write_text('{"k": 5}\n')
        assert main(["evaluate", "--sample", str(sample), "--model", str(model)]) == 2

    @pytest.mark.parametrize("changes", MALFORMED_MODELS, ids=["off-grid", "4-wide"])
    def test_evaluate_with_inconsistent_model_exits_2(self, tmp_path, capsys, changes):
        sample, model = tmp_path / "sample.jsonl", tmp_path / "model.json"
        sample.write_text("")
        model.write_text(model_json(**changes))
        assert main(["evaluate", "--sample", str(sample), "--model", str(model)]) == 2
        assert "malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
    def test_evaluate_with_bad_grid_exits_2(self, tmp_path, capsys, grid):
        sample, model = tmp_path / "sample.jsonl", tmp_path / "model.json"
        sample.write_text("")
        model.write_text(model_json(grid_values=BAD_GRIDS[grid]))
        assert main(["evaluate", "--sample", str(sample), "--model", str(model)]) == 2
        assert "malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("line", ["{}", "[1, 2]"])
    def test_malformed_sample_record_exits_2(self, tmp_path, capsys, command, line):
        sample, model = tmp_path / "sample.jsonl", tmp_path / "model.json"
        sample.write_text("\n" + line + "\n")
        argv = [command, "--sample", str(sample)]
        argv += ["--out", str(model)] if command == "train" else ["--model", str(model)]
        assert main(argv) == 2
        assert f"{sample}:2" in capsys.readouterr().err


# (eps1, eps2, mu) triples that break a rule of a two-stage problem, and
# the one message each gets wherever it is checked
BAD_PROBLEMS = {
    "eps1-nan": (math.nan, 1e-10, 0.5, "eps1 must be finite, got nan"),
    "eps1-inf": (math.inf, 1e-10, 0.5, "eps1 must be finite, got inf"),
    "eps1-nan-and-mu": (math.nan, 1e-10, 2.0, "eps1 must be finite, got nan"),
    "eps1-below-eps2": (1e-12, 1e-10, 0.5, "eps1=1e-12 must be >= eps2=1e-10"),
    "eps1-zero": (0.0, 1e-10, 0.5, "eps1=0 must be >= eps2=1e-10"),
    "eps1-negative": (-0.1, 1e-10, 0.5, "eps1=-0.1 must be >= eps2=1e-10"),
    "eps2-zero": (1e-3, 0.0, 0.5, "eps2 must be positive and finite, got 0"),
    "eps2-negative": (1e-3, -1.0, 0.5, "eps2 must be positive and finite, got -1"),
    "eps2-nan": (1e-3, math.nan, 0.5, "eps2 must be positive and finite, got nan"),
    "eps2-inf": (1e-3, math.inf, 0.5, "eps2 must be positive and finite, got inf"),
    "mu-zero": (1e-3, 1e-10, 0.0, "mu must lie in (0, 1), got 0"),
    "mu-one": (1e-3, 1e-10, 1.0, "mu must lie in (0, 1), got 1"),
    "mu-negative": (1e-3, 1e-10, -0.5, "mu must lie in (0, 1), got -0.5"),
    "mu-nan": (1e-3, 1e-10, math.nan, "mu must lie in (0, 1), got nan"),
}


class TestTwoStageRules:
    """``sweep``, ``EpsilonGrid``, ``solve`` before the matrix and ``label``
    before the specs reject a bad (eps1, eps2, mu) in the same words."""

    @pytest.mark.parametrize(
        "eps1, eps2, mu, message", BAD_PROBLEMS.values(), ids=BAD_PROBLEMS.keys())
    def test_every_check_says_the_same(self, tmp_path, capsys, eps1, eps2, mu, message):
        A = from_coordinates(range(3), range(3), [1.0, 2.0, 3.0], 3)
        with pytest.raises(ValueError) as swept:
            sweep(A, np.ones(3), (eps1, None), eps2, mu)
        with pytest.raises(ValueError) as grid:
            EpsilonGrid((eps1,), eps2, mu)
        assert str(swept.value) == str(grid.value) == message
        missing, out = tmp_path / "missing", tmp_path / "sample.jsonl"
        numbers = [f"--eps2={eps2}", f"--mu={mu}"]
        for argv in (["solve", str(missing), f"--eps1={eps1}", *numbers],
                     ["label", "--specs", str(missing), "--out", str(out),
                      f"--grid={eps1}", *numbers]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n", argv[0]

    def test_solve_and_label_reject_eps2_zero_alike(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["solve", missing, "--eps1", "1e-3", "--eps2", "0"]) == 2
        solved = capsys.readouterr().err
        assert main(["label", "--specs", missing, "--out", missing, "--eps2", "0"]) == 2
        labelled = capsys.readouterr().err
        assert solved == labelled == "error: eps2 must be positive and finite, got 0\n"

    def test_baseline_only_sweep_checks_eps2_and_mu(self):
        A = from_coordinates(range(3), range(3), [1.0, 2.0, 3.0], 3)
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\), got 2"):
            sweep(A, np.ones(3), (None,), 1e-10, 2.0)
        results, failure = sweep(A, np.ones(3), (None,), 1e-10)
        assert failure is None and results[0].n1 == 0


class TestBinary32Range:
    """Diagonal SPD systems near the ends of the binary32 range: a ``d'Ad``
    that underflows to 0 is no breakdown, and an overflowed stage-1 iterate
    is a runtime failure (exit 3), not a configuration error.  A ``d'Ad``
    that cancels to 0 on an indefinite diagonal is still a breakdown."""

    @staticmethod
    def _files(tmp_path, diagonal, rhs):
        n, matrix, b = len(diagonal), tmp_path / "D.mtx", tmp_path / "b.txt"
        write_matrix_market(from_coordinates(range(n), range(n), diagonal, n), matrix)
        np.savetxt(b, np.full(n, rhs))
        return str(matrix), str(b)

    def test_product_underflow_solves(self, tmp_path, capsys):
        matrix, b = self._files(tmp_path, 1e-33 * np.arange(1, 41), 1e-3)
        assert main(["solve", matrix, "--eps1", "1e-5", "--b", b]) == 0
        out = capsys.readouterr().out
        assert "N1             = 23 (underflow)\nN2             = 28 (converged)\n" in out

    def test_cancelled_product_exits_3(self, tmp_path, capsys):
        # b = A 1 = (1, -1) by default, so d'Ad = 0 exactly at iteration 1
        matrix, _ = self._files(tmp_path, [1.0, -1.0], 1.0)
        assert main(["solve", matrix, "--eps1", "1e-5"]) == 3
        assert capsys.readouterr().err == (
            "error: d'Ad = 0.0 at iteration 1: operand not SPD at binary32\n")

    @pytest.mark.parametrize("diagonal, rhs, eps1, iteration", [
        (1e-30 * np.arange(1, 41), 1e-3, "1e-6", 127),
        ([1e-30], 1e10, "1e-3", 3),  # the solution, 1e40, lies beyond binary32
    ], ids=["ramp", "solution-beyond-binary32"])
    def test_overflowed_stage1_iterate_exits_3(self, tmp_path, capsys, diagonal, rhs, eps1,
                                               iteration):
        matrix, b = self._files(tmp_path, diagonal, rhs)
        assert main(["solve", matrix, "--eps1", eps1, "--b", b]) == 3
        assert capsys.readouterr().err == (
            f"error: stage 1 iterate overflows binary32 at iteration {iteration}"
            f" (eps1={float(eps1):g})\n")


class TestExitCodes:
    """``main`` maps each failure to its code and says what failed."""

    @pytest.mark.parametrize(
        "argv, code, named", EXIT_CODE_CASES.values(), ids=EXIT_CODE_CASES.keys()
    )
    def test_fault_exits_with_its_code(self, inputs, capsys, argv, code, named):
        assert main([arg.format(**inputs) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert named.format(**inputs) in captured.err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("record, message", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
    def test_bad_record_number_exits_2(self, inputs, tmp_path, capsys, command, record, message):
        sample, model = tmp_path / "bad.jsonl", tmp_path / "trained.json"
        sample.write_text(sample_json(matrix_id="s00001", group_id="s00001") + record)
        argv = {
            "train": ["train", "--sample", str(sample), "--out", str(model)],
            "evaluate": ["evaluate", "--sample", str(sample), "--model", inputs["model"]],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed record at {sample}:2: {ValueError(message)!r}\n"
        assert not model.exists()

    def test_consistent_record_evaluates(self, inputs, capsys):
        argv = ["evaluate", "--sample", inputs["sample"], "--model", inputs["model"]]
        assert main([*argv, "--subset", "all"]) == 0
        assert "N_Opt / N_Wrst" in capsys.readouterr().out


class TestPipeline:
    def test_end_to_end_toy_sample(self, tmp_path, capsys):
        specs = tmp_path / "specs.jsonl"
        sample = tmp_path / "sample.jsonl"
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"

        assert (
            main(
                [
                    "generate", "--out", str(specs), "--count", "50",
                    "--n-min", "30", "--n-max", "90", "--variants", "4", "--seed", "11",
                ]
            )
            == 0
        )
        assert main(["label", "--specs", str(specs), "--out", str(sample)]) == 0
        assert (
            main(
                [
                    "train", "--sample", str(sample), "--out", str(model),
                    "--k", "3", "--seed", "2",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate", "--sample", str(sample), "--model", str(model),
                    "--out", str(report), "--subset", "test",
                ]
            )
            == 0
        )
        table = capsys.readouterr().out
        assert "N_Opt / N_Wrst" in table
        rep = json.loads(report.read_text())
        assert rep["n_opt"] <= rep["n_knn"] <= rep["n_wrst"]

        # k = 1 on the training side reproduces the optimum exactly
        model1 = tmp_path / "model1.json"
        assert (
            main(
                [
                    "train", "--sample", str(sample), "--out", str(model1),
                    "--k", "1", "--seed", "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "evaluate", "--sample", str(sample), "--model", str(model1),
                    "--subset", "train",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "N_kNN - N_Opt  = 0.0" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            d = tmp_path / f"run{run}"
            d.mkdir()
            specs, sample = d / "specs.jsonl", d / "sample.jsonl"
            model, report = d / "model.json", d / "report.json"
            assert (
                main(
                    [
                        "generate", "--out", str(specs), "--count", "18",
                        "--n-min", "25", "--n-max", "60", "--variants", "3",
                        "--seed", "5",
                    ]
                )
                == 0
            )
            assert main(["label", "--specs", str(specs), "--out", str(sample)]) == 0
            assert (
                main(
                    [
                        "train", "--sample", str(sample), "--out", str(model),
                        "--k", "3", "--seed", "7",
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "evaluate", "--sample", str(sample), "--model", str(model),
                        "--out", str(report),
                    ]
                )
                == 0
            )
            blobs.append(
                tuple(p.read_bytes() for p in (specs, sample, model, report))
            )
        assert blobs[0] == blobs[1]

    def test_products_leave_model_and_report_unchanged(self, tmp_path):
        # train and evaluate read the costs alone: a sample whose cost
        # entries lack p1 and p2, as older samples do, gives the same bytes.
        specs, sample = tmp_path / "specs.jsonl", tmp_path / "sample.jsonl"
        argv = ["generate", "--out", str(specs), "--count", "18", "--n-min", "25",
                "--n-max", "60", "--variants", "3", "--seed", "5"]
        assert main(argv) == 0
        assert main(["label", "--specs", str(specs), "--out", str(sample)]) == 0
        old = tmp_path / "old.jsonl"
        records = [json.loads(line) for line in sample.read_text().splitlines()]
        for record in records:
            for entry in record["costs"]:
                del entry["p1"], entry["p2"]
        old.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        blobs = []
        for source in (sample, old):
            model, report = tmp_path / f"{source.stem}.model", tmp_path / f"{source.stem}.report"
            argv = ["train", "--sample", str(source), "--out", str(model), "--k", "3"]
            assert main(argv) == 0
            argv = ["evaluate", "--sample", str(source), "--model", str(model),
                    "--out", str(report)]
            assert main(argv) == 0
            table = tmp_path / f"{report.name}.txt"
            blobs.append((model.read_bytes(), report.read_bytes(), table.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_solve_auto_round_trip(self, tmp_path, capsys):
        specs, sample = tmp_path / "specs.jsonl", tmp_path / "sample.jsonl"
        model = tmp_path / "model.json"
        assert (
            main(
                [
                    "generate", "--out", str(specs), "--count", "30",
                    "--n-min", "30", "--n-max", "80", "--variants", "4", "--seed", "3",
                ]
            )
            == 0
        )
        assert main(["label", "--specs", str(specs), "--out", str(sample)]) == 0
        assert (
            main(
                [
                    "train", "--sample", str(sample), "--out", str(model),
                    "--k", "1", "--seed", "1", "--test-fraction", "0.2",
                ]
            )
            == 0
        )
        capsys.readouterr()

        # a training matrix regenerated from its spec must predict its own label
        sample_recs = [json.loads(s) for s in sample.read_text().splitlines()]
        model_ids = set(json.loads(model.read_text())["train_ids"])
        spec_lines = [json.loads(s) for s in specs.read_text().splitlines()]
        mine = next(
            r
            for r in sample_recs
            if r["valid"]
            and r["matrix_id"] in model_ids
            and r["matrix_id"].startswith("s")  # structured: regenerable directly
        )
        spec = GraphSpec.from_dict(
            next(d for d in spec_lines if d == mine["spec"])
        )
        mtx = tmp_path / "m.mtx"
        write_matrix_market(generate(spec), mtx)
        assert main(["solve", str(mtx), "--eps1", "auto", "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert f"predicted class = {mine['label']}" in out
