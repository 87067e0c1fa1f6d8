import numpy as np
import pytest

from deepbnmf.dataio import (
    read_matrix,
    read_trace,
    trace_header,
    write_matrix,
    write_mosaic_pgm,
    write_trace,
)
from deepbnmf.errors import DimensionError, ParseError
from deepbnmf.model import ConvergenceTrace, SweepRecord


class TestCsvMatrix:
    def test_parse_simple(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        M = read_matrix(path, "csv")
        assert np.array_equal(M, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# header\n1,2\n\n3,4\n")
        assert read_matrix(path, "csv").shape == (2, 2)

    def test_ragged_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match=":2"):
            read_matrix(path, "csv")

    def test_negative_warns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,-2\n")
        with pytest.warns(RuntimeWarning):
            read_matrix(path, "csv")

    def test_round_trip_exact_values(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.uniform(1e-12, 1e6, (7, 5)) * rng.choice([1.0, 1e-7, 1e7], (7, 5))
        path = tmp_path / "m.csv"
        write_matrix(M, path, "csv")
        back = read_matrix(path, "csv")
        assert np.array_equal(M, back)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\nx,4\n")
        with pytest.raises(ParseError, match=":2"):
            read_matrix(path, "csv")


class TestBinaryMatrix:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 9)) ** 3
        path = tmp_path / "m.bin"
        write_matrix(M, path, "binary")
        back = read_matrix(path, "binary")
        assert M.tobytes() == back.tobytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTDBN" + b"\x00" * 32)
        with pytest.raises(ParseError):
            read_matrix(path, "binary")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(np.ones((2, 2)), path, "binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError):
            read_matrix(path, "binary")


class TestMosaic:
    def read_pgm(self, path):
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        header_end = blob.index(b"255\n") + 4
        dims = blob[3 : blob.index(b"\n", 3)].split()
        w, h = int(dims[0]), int(dims[1])
        pixels = np.frombuffer(blob[header_end:], dtype=np.uint8).reshape(h, w)
        return pixels

    def test_min_max_mapping(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_mosaic_pgm(np.array([[0.0, 1.0, 2.0, 3.0]]), 2, 2, 1, path)
        pixels = self.read_pgm(path)
        assert pixels.tolist() == [[0, 85], [170, 255]]

    def test_constant_feature_maps_to_zero(self, tmp_path):
        path = tmp_path / "f.pgm"
        write_mosaic_pgm(np.full((1, 4), 3.5), 2, 2, 1, path)
        assert self.read_pgm(path).tolist() == [[0, 0], [0, 0]]

    def test_grid_dimensions_with_separators(self, tmp_path):
        path = tmp_path / "f.pgm"
        features = np.arange(16, dtype=float).reshape(4, 4)
        write_mosaic_pgm(features, 2, 2, 2, path)
        pixels = self.read_pgm(path)
        assert pixels.shape == (5, 5)
        assert np.all(pixels[2, :] == 255)
        assert np.all(pixels[:, 2] == 255)

    def test_partial_last_row(self, tmp_path):
        # Three tiles two to a row: the last row's second cell is blank.
        path = tmp_path / "f.pgm"
        write_mosaic_pgm(np.arange(12, dtype=float).reshape(3, 4), 2, 2, 2, path)
        pixels = self.read_pgm(path)
        assert pixels.shape == (5, 5)
        assert np.all(pixels[2, :] == 255) and np.all(pixels[:, 2] == 255)
        assert pixels[3:, :2].tolist() == [[0, 85], [170, 255]]
        assert np.all(pixels[3:, 3:] == 0)

    def test_tile_size_mismatch(self, tmp_path):
        with pytest.raises(DimensionError):
            write_mosaic_pgm(np.ones((1, 5)), 2, 2, 1, tmp_path / "f.pgm")

    @pytest.mark.parametrize("tile", [(-2, -4), (0, 3), (3, 0)])
    def test_tile_size_must_be_positive(self, tmp_path, tile):
        # (-2)(-4) = 8 entries per row passes the entry count on its own.
        features = np.ones((2, tile[0] * tile[1]))
        with pytest.raises(DimensionError, match="tile size"):
            write_mosaic_pgm(features, *tile, 2, tmp_path / "f.pgm")
        assert not (tmp_path / "f.pgm").exists()


class TestTrace:
    def build_trace(self, sweeps=3, layers=2):
        trace = ConvergenceTrace(layers)
        rng = np.random.default_rng(2)
        for s in range(sweeps):
            trace.append(
                SweepRecord(
                    sweep=s,
                    total_objective=float(rng.uniform(0, 10)),
                    layer_errors=tuple(rng.uniform(0, 5, layers)),
                    logdet_terms=tuple(rng.uniform(-1, 1, layers)),
                    max_residual=float(rng.uniform(0, 1e-9)),
                    seconds=float(rng.uniform(0, 0.1)),
                )
            )
        return trace

    def test_header_only_for_empty_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(ConvergenceTrace(3), path)
        assert path.read_text() == trace_header(3) + "\n"

    def test_row_count(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(self.build_trace(3), path)
        assert len(path.read_text().strip().splitlines()) == 4

    def test_round_trip_identical_values(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = self.build_trace(5)
        write_trace(trace, path)
        back = read_trace(path)
        assert back.num_layers == trace.num_layers
        for a, b in zip(trace.records, back.records):
            assert a.sweep == b.sweep
            assert a.total_objective == b.total_objective
            assert a.layer_errors == b.layer_errors
            assert a.logdet_terms == b.logdet_terms
            assert a.max_residual == b.max_residual
            assert a.seconds == b.seconds

    def test_timing_flag_zeroes_seconds(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(self.build_trace(2), path, timing=False)
        back = read_trace(path)
        assert all(rec.seconds == 0.0 for rec in back.records)
