import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beqpt.acceptance import RowResult
from beqpt.bipartite import BipartiteOperator, DensityMatrix
from beqpt.diagnostics import DiagnosticsReport, RudolphReport
from beqpt.filtering import FilterAnalysis
from beqpt.reports import (
    Record,
    load_density_matrix,
    load_local_operator,
    make_report,
    matrix_file,
    parse_matrix_file,
    report_json,
    to_jsonable,
    write_report,
)
from beqpt.seesaw import SeesawConfig, SeesawResult
from beqpt.states import random_density_matrix
from beqpt.tomography import ReconstructionResult


class TestMatrixFileRoundtrip:
    def test_exact_roundtrip(self, rng):
        rho = random_density_matrix(3, 2, rng)
        obj = json.loads(json.dumps(matrix_file(rho)))
        mat, dA, dB = parse_matrix_file(obj)
        # shortest-roundtrip float serialization is lossless
        assert (dA, dB) == (3, 2)
        assert np.array_equal(mat, rho.mat)

    def test_file_roundtrip(self, rng, tmp_path):
        rho = random_density_matrix(2, 2, rng)
        path = tmp_path / "state.json"
        write_report(matrix_file(rho), str(path))
        back = load_density_matrix(str(path))
        assert np.array_equal(back.mat, rho.mat)

    def test_local_operator_roundtrip(self, tmp_path):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        path = tmp_path / "op.json"
        write_report(matrix_file(BipartiteOperator(a, 2, 1)), str(path))
        assert np.array_equal(load_local_operator(str(path)), a)

    def test_local_operator_rejects_bipartite_dims(self, rng, tmp_path):
        path = tmp_path / "st.json"
        write_report(matrix_file(random_density_matrix(2, 2, rng)), str(path))
        with pytest.raises(ValueError, match="dims"):
            load_local_operator(str(path))


class TestParseValidation:
    def test_not_an_object(self):
        with pytest.raises(ValueError, match="matrix file must be a JSON object"):
            parse_matrix_file([])

    def test_bad_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            parse_matrix_file({"schema_version": 99, "dims": [2, 2], "re": [], "im": []})

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_is_the_int_one(self, version):
        with pytest.raises(ValueError, match="schema_version"):
            parse_matrix_file({"schema_version": version, "dims": [1, 1], "re": [[1]], "im": [[0]]})

    def test_bad_dims(self):
        with pytest.raises(ValueError, match="dims"):
            parse_matrix_file({"schema_version": 1, "dims": [2], "re": [], "im": []})

    def test_bool_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            parse_matrix_file(
                {"schema_version": 1, "dims": [True, True], "re": [[1.0]], "im": [[0.0]]}
            )

    def test_shape_mismatch(self):
        re = [[0.0] * 3 for _ in range(3)]
        with pytest.raises(ValueError, match="shape"):
            parse_matrix_file({"schema_version": 1, "dims": [2, 2], "re": re, "im": re})

    def test_integer_entry_too_large_for_a_float(self):
        # json reads it as an int; converting it raises OverflowError
        with pytest.raises(ValueError, match="payload"):
            parse_matrix_file(
                {"schema_version": 1, "dims": [1, 1], "re": [[10**400]], "im": [[0]]}
            )

    @pytest.mark.parametrize("re", [
        [["0.5", "0"], [0, "0.5"]],  # numeric strings
        [[True, False], [False, True]],
        [[0.5, True], [0, 0.5]],  # a bool among floats
        [[0.5, None], [0, 0.5]],
        [[0.5, [0]], [0, 0.5]],
    ])
    def test_non_numeric_entries(self, re):
        with pytest.raises(ValueError, match="entries must be numbers"):
            parse_matrix_file({"schema_version": 1, "dims": [2, 1], "re": re,
                               "im": [[0, 0], [0, 0]]})

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            load_density_matrix(str(path))

    def test_nested_too_deeply(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ValueError, match="deep.json: not valid JSON"):
            load_density_matrix(str(path))


class TestJsonable:
    def test_numpy_scalars(self):
        out = to_jsonable({"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)})
        assert out == {"a": 1.5, "b": 3, "c": True}
        assert isinstance(out["b"], int)
        # the JSON these scalars have always produced
        values = [np.float32(0.1), np.int64(-7), np.bool_(False), np.str_("s"), True,
                  float("inf"), float("-inf"), float("nan"), np.float64("nan"), np.float32("-inf")]
        assert json.dumps(to_jsonable(values)) == (
            '[0.10000000149011612, -7, false, "s", true, null, null, null, null, null]')

    def test_arrays_and_tuples(self):
        out = to_jsonable({"m": np.eye(2), "t": (1, 2.5)})
        assert out == {"m": [[1.0, 0.0], [0.0, 1.0]], "t": [1, 2.5]}

    def test_nonfinite_becomes_none(self):
        assert to_jsonable(float("inf")) is None

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_records_and_operators_by_one_rule(self, rng):
        @dataclass(frozen=True)
        class Inner(Record):
            state: DensityMatrix
            value: float

        @dataclass(frozen=True)
        class Outer(Record):
            inner: Inner
            flags: tuple

        rho = random_density_matrix(2, 3, rng)
        out = Outer(Inner(rho, float("nan")), (np.bool_(True), np.int64(2))).to_dict()
        assert out == {"inner": {"state": matrix_file(rho), "value": None}, "flags": [True, 2]}

    def test_no_record_writes_its_own_serializer(self):
        for cls in (DiagnosticsReport, RudolphReport, SeesawConfig, SeesawResult,
                    ReconstructionResult, FilterAnalysis, RowResult):
            assert issubclass(cls, Record) and "to_dict" not in vars(cls)


class TestReports:
    def test_report_structure_and_determinism(self):
        rep = make_report("diagnose", {"state": "x"}, {"value": np.float64(2.0)}, {"total_s": 0.1})
        assert rep["schema_version"] == 1
        text = report_json(rep)
        assert json.loads(text)["results"]["value"] == 2.0
        # without timings, reruns compare byte-identical
        rep2 = make_report("diagnose", {"state": "x"}, {"value": 2.0}, {"total_s": 0.2})
        assert report_json({**rep, "timings": None}) == report_json({**rep2, "timings": None})
        assert report_json(rep) != report_json(rep2)


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, float("nan"), float("inf"), float("-inf")]
EDGE_STRINGS = ['"', "\\", "a\"b\\c", "\x00\x1f\x7f\n\t", "é€𝄞\u2028"]
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**63, -2**64, 10**30]),
    st.floats(), st.sampled_from(EDGE_FLOATS), st.text(), st.sampled_from(EDGE_STRINGS))
keys = st.text() | st.sampled_from(EDGE_STRINGS)
# rows of floats take the writer's one-join path, so draw them apart
rows = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS))
documents = st.recursive(
    scalars | rows,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(keys, kids),
    max_leaves=40)


class TestReportJson:
    @given(documents)
    def test_bytes_equal_json_dumps(self, x):
        assert report_json(x) == json.dumps(x, indent=2, sort_keys=True)

    @pytest.mark.parametrize("x", [{1: 2.0}, [object()], {"a": {1, 2}}, np.int64(3), 1j])
    def test_other_types_raise(self, x):
        with pytest.raises(TypeError):
            report_json(x)
