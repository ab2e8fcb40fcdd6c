"""Dictionary construction and CSV loading."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hazlasso import DataValidationError, DictionaryMatrix, linear_dictionary, load_dictionary
from hazlasso.dictionary import MAX_HALF_RANGE, MIN_HALF_RANGE, half_range
from hazlasso.survival import SurvivalDataset


class TestDictionaryMatrix:
    def test_linear_dictionary_is_a_read_only_view(self):
        ds = SurvivalDataset(
            times=[0.5, 1.0],
            status=[1, 0],
            covariates=[[1.0, -3.0], [2.0, 0.5]],
            labels=["a", "b"],
        )
        dic = linear_dictionary(ds)
        assert dic.n == 2 and dic.M == 2
        assert dic.labels == ["a", "b"]
        np.testing.assert_array_equal(dic.values, ds.covariates)
        # shared storage, but the data cannot be changed through the dictionary
        assert np.shares_memory(dic.values, ds.covariates)
        assert not dic.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dic.values[0, 0] = 99.0
        assert ds.covariates.tolist() == [[1.0, -3.0], [2.0, 0.5]]

    def test_validation(self):
        with pytest.raises(DataValidationError, match="2-d"):
            DictionaryMatrix(values=np.ones(3), labels=["a"])
        with pytest.raises(DataValidationError, match="label"):
            DictionaryMatrix(values=np.ones((2, 2)), labels=["a"])
        with pytest.raises(DataValidationError, match="duplicate"):
            DictionaryMatrix(values=np.ones((2, 2)), labels=["a", "a"])
        with pytest.raises(DataValidationError, match="finite"):
            DictionaryMatrix(values=np.array([[1.0, np.nan]]), labels=["a", "b"])

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
    def test_no_rows_is_refused_by_name(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match="no rows"):
                DictionaryMatrix(values=np.empty(shape), labels=["a", "b"])

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "all +inf"])
    def test_non_finite_values_are_refused_without_a_runtime_warning(self, bad, batched):
        # an all-+inf column has max - min = inf - inf, NaN: the half-range
        # is non-finite in every case, and no RuntimeWarning is raised
        values = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
        if bad == "all +inf":
            values[:, 1] = np.inf
        else:
            values[1, 1] = float(bad)
        if batched:
            values = np.stack([np.ones((3, 2)) + np.eye(3, 2), values])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match="finite"):
                DictionaryMatrix(values=values, labels=["a", "b"])

    @pytest.mark.parametrize("shape", [(7, 3), (4, 7, 3), (2, 5)])
    def test_half_range_is_the_formula_bit_for_bit(self, shape):
        scales = np.geomspace(1e-3, 1e6, shape[-1])
        values = np.random.default_rng(3).standard_normal(shape) * scales + 10.0
        dic = DictionaryMatrix(values=values, labels=[f"h{j}" for j in range(shape[-1])])
        np.testing.assert_array_equal(dic.half_range, half_range(values))
        assert dic.half_range.shape == shape[:-2] + shape[-1:]
        # halved before the difference, the same bits as (max - min) / 2
        spread = np.maximum.reduce(values, axis=-2) - np.minimum.reduce(values, axis=-2)
        np.testing.assert_array_equal(dic.half_range, 0.5 * spread)

    @pytest.mark.parametrize("batched", [False, True])
    def test_overflowing_columns_are_refused_by_name(self, batched):
        # finite values whose squares overflow in H, vhat and the weights, a
        # column whose max - min itself exceeds the largest float, and
        # constant columns (half-range 0) whose risk-set means overflow
        values = np.array(
            [
                [1.0, 2e160, 1e308, 1.7e308, -1.7e308, 2.0**501],
                [3.0, -1e160, -1e308, 1.7e308, -1.7e308, 2.0**501],
                [0.5, 4e160, 0.0, 1.7e308, -1.7e308, 2.0**501],
            ]
        )
        if batched:
            values = np.stack([np.ones((3, 6)) + np.eye(3, 6), values])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match=r"too large in column\(s\) b, c, d, e, f:"):
                DictionaryMatrix(values=values, labels=["a", "b", "c", "d", "e", "f"])

    @pytest.mark.parametrize("batched", [False, True])
    def test_underflowing_columns_are_refused_by_name(self, batched):
        # nonzero half-ranges whose squares underflow; constant columns,
        # however small, stay pinned with a warning
        values = np.array([[1.0, 1e-170, 0.0, 5e-324], [3.0, -1e-170, 0.0, 5e-324]])
        if batched:
            values = np.stack([np.ones((2, 4)) + np.eye(2, 4), values])
        with pytest.raises(DataValidationError, match=r"too small in column\(s\) b:"):
            DictionaryMatrix(values=values, labels=["a", "b", "c", "d"])

    def test_small_half_range_limit_is_inclusive(self):
        values = np.array([[1.0, MIN_HALF_RANGE], [3.0, -MIN_HALF_RANGE]])
        dic = DictionaryMatrix(values=values, labels=["a", "b"])
        assert dic.half_range[1] == MIN_HALF_RANGE
        with pytest.raises(DataValidationError, match=r"too small in column\(s\) b:"):
            DictionaryMatrix(values=np.nextafter(values, 0 * values), labels=["a", "b"])

    def test_half_range_limit_is_inclusive(self):
        # the limit bounds each column's level: b reaches it by its
        # half-range, c, far from zero but narrow, by its values alone
        values = np.array(
            [[-1.0, MAX_HALF_RANGE, MAX_HALF_RANGE], [1.0, -MAX_HALF_RANGE, MAX_HALF_RANGE / 2]]
        )
        dic = DictionaryMatrix(values=values, labels=["a", "b", "c"])
        assert dic.half_range[1] == MAX_HALF_RANGE
        with pytest.raises(DataValidationError, match="too large in column\\(s\\) b, c:"):
            DictionaryMatrix(values=np.nextafter(values, 2 * values), labels=["a", "b", "c"])

    def test_values_are_a_read_only_view(self):
        values = np.array([[1.0, 2.0], [3.0, -1.0]])
        dic = DictionaryMatrix(values=values, labels=["a", "b"])
        assert np.shares_memory(dic.values, values) and not dic.values.flags.writeable
        assert values.flags.writeable

    def test_validation_makes_no_full_size_temporary(self):
        values = np.random.default_rng(4).standard_normal((4000, 250))
        labels = [f"x{j + 1}" for j in range(250)]
        tracemalloc.start()
        try:
            DictionaryMatrix(values=values, labels=labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.02 * values.size

    def test_all_zero_column_warns_by_name(self):
        with pytest.warns(UserWarning, match="dead"):
            DictionaryMatrix(values=np.array([[1.0, 0.0], [2.0, 0.0]]), labels=["ok", "dead"])

    @pytest.mark.parametrize("level", [1e-3, 1e8])
    def test_nonzero_constant_column_warns_by_name(self, level):
        values = np.array([[1.0, level], [2.0, level]])
        with pytest.warns(UserWarning, match="constant dictionary column\\(s\\): flat"):
            DictionaryMatrix(values=values, labels=["ok", "flat"])
        with pytest.warns(UserWarning, match="constant dictionary column\\(s\\): flat"):
            DictionaryMatrix(values=np.stack([values, values[::-1]]), labels=["ok", "flat"])

    def test_constant_column_warning_names_the_constructor_caller(self, tmp_path):
        # the caller's file on every route: not the dataclass's generated
        # __init__, whose file reads "<string>", nor a library function
        # that built the dictionary
        with pytest.warns(UserWarning, match="constant dictionary column") as record:
            DictionaryMatrix(values=np.ones((3, 2)), labels=["a", "b"])
        assert [w.filename for w in record] == [__file__]
        ds = SurvivalDataset(times=[0.5, 0.7], status=[1, 0], covariates=[[1.0], [1.0]])
        with pytest.warns(UserWarning, match="constant dictionary column") as record:
            linear_dictionary(ds)
        assert [w.filename for w in record] == [__file__]
        path = tmp_path / "dict.csv"
        path.write_text("f,g\n1.0,2.0\n1.0,3.0\n")
        with pytest.warns(UserWarning, match="constant dictionary column\\(s\\): f") as record:
            load_dictionary(path)
        assert [w.filename for w in record] == [__file__]

    def test_nonzero_columns_do_not_warn(self):
        # two rows: in one row every column is constant, and warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DictionaryMatrix(values=np.array([[1.0, -1.0], [0.5, 2.0]]), labels=["a", "b"])


class TestLoadDictionary:
    def _write(self, tmp_path, text):
        path = tmp_path / "dict.csv"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, "f,g\n1.0,2.0\n-0.5,0.25\n")
        dic = load_dictionary(path)
        assert dic.labels == ["f", "g"]
        np.testing.assert_array_equal(dic.values, [[1.0, 2.0], [-0.5, 0.25]])

    def test_row_count_checked_against_dataset(self, tmp_path):
        path = self._write(tmp_path, "f\n1.0\n2.0\n")
        with pytest.raises(DataValidationError, match="3 records"):
            load_dictionary(path, n_expected=3)

    def test_bad_cell_names_line(self, tmp_path):
        path = self._write(tmp_path, "f,g\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataValidationError, match="line 3"):
            load_dictionary(path)

    def test_non_finite_cell_names_column(self, tmp_path):
        path = self._write(tmp_path, "f,g\n1.0,inf\n")
        with pytest.raises(DataValidationError, match="column g"):
            load_dictionary(path)

    def test_empty_and_headerless_files(self, tmp_path):
        with pytest.raises(DataValidationError, match="empty"):
            load_dictionary(self._write(tmp_path, ""))
        with pytest.raises(DataValidationError, match="header"):
            load_dictionary(self._write(tmp_path, "f,,g\n1,2,3\n"))
        with pytest.raises(DataValidationError, match="no data rows"):
            load_dictionary(self._write(tmp_path, "f,g\n"))

    def test_ragged_row_names_line(self, tmp_path):
        path = self._write(tmp_path, "f,g\n1.0\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_dictionary(path)

    def test_non_finite_cell_names_its_file_line(self, tmp_path):
        # blank lines count, as they do for every other error
        path = self._write(tmp_path, "f,g\n1.0,2.0\n\n1.0,nan\n")
        with pytest.raises(DataValidationError, match="line 4: non-finite value in column g"):
            load_dictionary(path)

    def test_first_bad_line_wins(self, tmp_path):
        path = self._write(tmp_path, "f,g\n1.0,inf\n1.0\n")
        with pytest.raises(DataValidationError, match="line 2: non-finite value in column g"):
            load_dictionary(path)
        path = self._write(tmp_path, "f,g\n1.0,2.0 # c\n1.0,inf\n")
        with pytest.raises(DataValidationError, match="line 2: bad value"):
            load_dictionary(path)

    def test_csv_syntax(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_bytes(b'f,g\r\n"1.5", 2 \r\n\r\n-0.5,"0.25"\r\n')
        np.testing.assert_array_equal(load_dictionary(path, 2).values, [[1.5, 2.0], [-0.5, 0.25]])
        path = self._write(tmp_path, 'f,g\n1.0,"2,0"\n')
        with pytest.raises(DataValidationError, match="line 2: bad value"):
            load_dictionary(path)

    def test_header_only_file_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match="no data rows"):
                load_dictionary(self._write(tmp_path, "f,g\n\n"))

