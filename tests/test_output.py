import numpy as np

from kirchlab.output import fmt, write_csv


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
