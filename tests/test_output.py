import json

import numpy as np
import pytest

from kirchlab.output import fmt, write_csv, write_json, write_svg_lines


class TestFmt:
    def test_python_scalars(self):
        assert fmt(0.1) == "0.1"
        assert fmt(3) == "3"
        assert fmt(True) == "true"
        assert fmt(float("nan")) == "nan"
        assert fmt("t") == "t"

    def test_numpy_scalars_read_like_python_scalars(self):
        assert fmt(np.float64(0.1)) == fmt(0.1) == "0.1"
        assert fmt(np.float32(0.5)) == "0.5"
        assert fmt(np.int64(7)) == "7"
        assert fmt(np.bool_(True)) == "true"
        assert fmt(np.bool_(False)) == "false"

    def test_csv_cells_of_numpy_scalars(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x", "ok"], [[np.float64(1e-3), np.bool_(True)]])
        assert path.read_text() == "x,ok\n0.001,true\n"


class TestAppend:
    ROWS = [[0.0, 1.5, True], [0.1, float("nan"), False], [0.2, 1e-300, True], [0.3, -2.0, False]]
    HEADER = ["t", "x", "ok"]

    @pytest.mark.parametrize("cuts", [[1], [3], [1, 2], [1, 2, 3]])
    def test_csv_in_blocks_equals_one_write(self, tmp_path, cuts):
        whole = write_csv(tmp_path / "whole.csv", self.HEADER, self.ROWS).read_bytes()
        bounds = [0, *cuts, len(self.ROWS)]
        path = tmp_path / "blocks.csv"
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            write_csv(path, self.HEADER, self.ROWS[a:b], append=i > 0)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("cuts", [[1], [3], [1, 2], [1, 2, 3]])
    def test_json_array_in_blocks_equals_one_write(self, tmp_path, cuts):
        docs = [{"t": r[0], "x": r[1], "ok": np.bool_(r[2]), "nested": {"b": [1, 2], "a": None}}
                for r in self.ROWS]
        whole = write_json(tmp_path / "whole.json", docs).read_bytes()
        assert whole == (json.dumps(json.loads(whole), sort_keys=True, indent=2) + "\n").encode()
        bounds = [0, *cuts, len(docs)]
        path = tmp_path / "blocks.json"
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            write_json(path, docs[a:b], append=i > 0)
        write_json(path, [], append=True)  # nothing to add
        assert path.read_bytes() == whole


class TestSvgLines:
    BARE = '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400"/>\n'
    SERIES = {"a": ([0.0, 1.0, 2.0], [1.0, -1.0, 3.0]), "b": ([0.0, 2.0], [0.5, 0.5])}

    def test_same_series_same_bytes(self, tmp_path):
        one = write_svg_lines(tmp_path / "one.svg", self.SERIES, "t").read_bytes()
        assert write_svg_lines(tmp_path / "two.svg", self.SERIES, "t").read_bytes() == one
        text = one.decode()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400">')
        assert text.count("<polyline") == 2 and ">t</text>" in text and text.endswith("</svg>\n")

    def test_non_finite_points_dropped(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        dirty = {"a": ([0.0, nan, 1.0, 1.5, 2.0, 3.0], [1.0, 2.0, -1.0, inf, 3.0, -inf]),
                 "b": ([0.0, 2.0], [0.5, 0.5])}
        clean = write_svg_lines(tmp_path / "clean.svg", self.SERIES).read_bytes()
        assert write_svg_lines(tmp_path / "dirty.svg", dirty).read_bytes() == clean

    @pytest.mark.parametrize("series", [{}, {"a": ([], [])}, {"a": ([float("nan")], [1.0]),
                                                           "b": ([0.0, 1.0], [float("inf")] * 2)}],
                             ids=["no-series", "empty", "all-non-finite"])
    def test_nothing_to_plot_gives_the_bare_svg(self, tmp_path, series):
        assert write_svg_lines(tmp_path / "p.svg", series, "t").read_text() == self.BARE
