import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def _jsonable(obj):
    """The copy the writer used to make of a document before encoding it:
    str keys, lists for tuples, Python values for numpy ones."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    return obj


def old_bytes(doc):
    return (json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n").encode()


def _orders_agree(d):
    """Float keys whose numeric and string orders are the same."""
    return sorted(d) == sorted(d, key=str)


FLOATS = st.floats(allow_nan=True, allow_infinity=False)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), FLOATS, st.text(max_size=4),
    FLOATS.map(np.float64), st.integers(-10**6, 10**6).map(np.int64), st.booleans().map(np.bool_),
    hnp.arrays(np.float64, (), elements=FLOATS),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=3, max_side=3)),
)
DOCS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=4),
    st.dictionaries(st.floats(allow_nan=False, allow_infinity=False), children,
                    max_size=4).filter(_orders_agree),
), max_leaves=12)


class TestJsonEncoder:
    """write_json encodes numpy values through json's own hook, with the
    bytes of encoding the _jsonable copy of the document."""

    @settings(max_examples=200, deadline=None)
    @given(doc=DOCS)
    def test_bytes_equal_the_copying_encoder(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        assert write_json(path, doc).read_bytes() == old_bytes(doc)

    @settings(max_examples=100, deadline=None)
    @given(head=st.lists(DOCS, min_size=1, max_size=3), tail=st.lists(DOCS, max_size=3))
    def test_append_equals_the_copying_encoder(self, tmp_path_factory, head, tail):
        path = tmp_path_factory.mktemp("json") / "docs.json"
        write_json(path, head)
        assert write_json(path, tail, append=True).read_bytes() == old_bytes(head + tail)

    def test_float_keys_sort_numerically(self, tmp_path):
        doc = {10.0: "c", 0.5: "a", 2.0: "b"}
        text = write_json(tmp_path / "k.json", doc).read_text()
        assert text == '{\n  "0.5": "a",\n  "2.0": "b",\n  "10.0": "c"\n}\n'
        # the copying encoder sorted them as strings
        assert old_bytes(doc) == b'{\n  "0.5": "a",\n  "10.0": "c",\n  "2.0": "b"\n}\n'

    def test_other_objects_are_refused_by_json(self, tmp_path):
        with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
            write_json(tmp_path / "s.json", {"a": {1, 2}})


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
