import json
import os
import stat
import sys
import threading

import numpy as np
import pytest

import mpcg.cli as cli
from mpcg._fileio import atomic_write, finite_json
from mpcg.cli import main
from mpcg.dataset import (
    EpsilonGrid,
    GraphSpec,
    build_sample,
    read_sample,
    write_sample,
)
from mpcg.features import FeatureVector
from mpcg.regression import evaluate, fit_knn, save_model, save_report


class Boom(Exception):
    pass


def contents(directory):
    """Every file of ``directory`` with its bytes."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestAtomicWrite:
    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"  # not visible before the end
        assert contents(tmp_path) == {"out.txt": b"new\n"}

    @pytest.mark.parametrize("error", [Boom, KeyboardInterrupt])
    def test_error_mid_write_keeps_previous_file(self, tmp_path, error):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(error):
            with atomic_write(str(path)) as fh:
                fh.write("half of the ne")
                fh.flush()
                raise error()
        assert contents(tmp_path) == {"out.txt": b"old\n"}

    def test_error_without_previous_file_writes_nothing(self, tmp_path):
        with pytest.raises(Boom):
            with atomic_write(tmp_path / "out.txt") as fh:
                fh.write("partial")
                raise Boom()
        assert contents(tmp_path) == {}

    def test_symlink_target_is_replaced(self, tmp_path):
        (tmp_path / "target.txt").write_text("old\n")
        (tmp_path / "link.txt").symlink_to("target.txt")
        with atomic_write(tmp_path / "link.txt") as fh:
            fh.write("new\n")
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "target.txt").read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]

    def test_pipe_is_written_not_replaced(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with atomic_write(fifo) as fh:
            fh.write("through the pipe\n")
        reader.join(timeout=10)
        assert received == [b"through the pipe\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_fd_link_to_pipe_is_written(self):
        """/dev/stdout piped into another process resolves, through
        /proc/self/fd, to a name like 'pipe:[N]' that is no path."""
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("no /proc/self/fd on this system")
        read_end, write_end = os.pipe()
        try:
            with atomic_write(f"{fd_dir}/{write_end}") as fh:
                fh.write("through the fd link\n")
            os.close(write_end)
            write_end = None
            with os.fdopen(read_end, "rb") as pipe:
                read_end = None
                assert pipe.read() == b"through the fd link\n"
        finally:
            for fd in (read_end, write_end):
                if fd is not None:
                    os.close(fd)

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("old\n")
        os.chmod(path, 0o600)
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert contents(tmp_path) == {"model.json": b"new\n"}

    def test_mode_matches_plain_open(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        with atomic_write(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        modes = {os.stat(tmp_path / name).st_mode for name in ("plain.txt", "atomic.txt")}
        assert len(modes) == 1

    def test_missing_directory_error_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(path):
                pass
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)
        assert contents(tmp_path) == {}


def _records(tmp_path):
    out = tmp_path / "seed.jsonl"
    build_sample([GraphSpec("path", 20, seed=1), GraphSpec("cycle", 16, seed=2)],
                 EpsilonGrid(), out)
    return read_sample(out)


class FailingRecord:
    def to_dict(self):
        raise Boom()


class TestWriters:
    def test_write_sample_keeps_previous_sample_and_manifest(self, tmp_path):
        records = _records(tmp_path)
        path = tmp_path / "seed.jsonl"
        before = contents(tmp_path)
        with pytest.raises(Boom):
            write_sample([records[0], FailingRecord(), records[1]], path)
        assert contents(tmp_path) == before

    def test_save_model_and_report_keep_previous_files(self, tmp_path):
        records = _records(tmp_path)
        for rec in records:
            rec.features = FeatureVector(20, 40, 5, 0.5, 4.0)
        model = fit_knn(records, k=1)
        report = evaluate(model, records)
        save_model(model, tmp_path / "model.json")
        save_report(report, tmp_path / "report.json")
        before = contents(tmp_path)
        with pytest.raises(TypeError):
            save_model(model, tmp_path / "model.json", split={"bad": object()})
        with pytest.raises(TypeError):
            save_report(report, tmp_path / "report.json", meta={"bad": object()})
        assert contents(tmp_path) == before

    def test_cli_spec_and_table_writers_keep_previous_files(self, tmp_path, monkeypatch):
        specs, sample = tmp_path / "specs.jsonl", tmp_path / "sample.jsonl"
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        generate = ["generate", "--out", str(specs), "--count", "6", "--n-min", "20",
                    "--n-max", "40", "--seed", "3"]
        assert main(generate) == 0
        assert main(["label", "--specs", str(specs), "--out", str(sample)]) == 0
        assert main(["train", "--sample", str(sample), "--out", str(model), "--k", "1"]) == 0
        evaluate_cmd = ["evaluate", "--sample", str(sample), "--model", str(model),
                        "--out", str(report), "--subset", "all"]
        assert main(evaluate_cmd) == 0
        before = contents(tmp_path)

        calls = []

        def to_dict_then_fail(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise Boom()
            return {"family": "path"}

        monkeypatch.setattr(GraphSpec, "to_dict", to_dict_then_fail)
        with pytest.raises(Boom):
            main(generate)
        monkeypatch.undo()

        def format_table_fails(self):
            raise Boom()

        monkeypatch.setattr(cli.regression.EvalReport, "format_table", format_table_fails)
        with pytest.raises(Boom):
            main(evaluate_cmd)
        after = contents(tmp_path)
        assert set(after) == set(before)  # no temporary file left behind
        assert after["specs.jsonl"] == before["specs.jsonl"]
        assert after["report.json.txt"] == before["report.json.txt"]

    def test_solution_writer_output_is_unchanged(self, tmp_path):
        x = np.array([1.0, -2.5e-17, 3.0])
        np.savetxt(tmp_path / "plain.txt", x, fmt="%.17g")
        with atomic_write(tmp_path / "atomic.txt") as fh:
            np.savetxt(fh, x, fmt="%.17g")
        assert (tmp_path / "atomic.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()


class TestFiniteJson:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e400"])
    def test_non_finite_number_is_rejected(self, token):
        with pytest.raises(ValueError, match=f"^non-finite number {token}$"):
            finite_json(f'{{"points": [[0.5, {token}]]}}')

    def test_finite_numbers_read_as_json_reads_them(self):
        text = '{"a": [0.1, -2.5e-300, 1.7976931348623157e308, 3], "b": null}'
        assert finite_json(text) == json.loads(text)

    @pytest.mark.parametrize("value", [10**400, -10**309, 2**1024])
    def test_integer_beyond_binary64_is_rejected(self, value):
        with pytest.raises(ValueError, match="beyond the binary64 range"):
            finite_json(f'{{"points": [[0.5, {value}]]}}')

    @pytest.mark.parametrize("value", [0, -7, 2**53 + 1, int(sys.float_info.max)])
    def test_integer_in_range_stays_an_exact_int(self, value):
        (got,) = finite_json(f"[{value}]")
        assert type(got) is int and got == value
