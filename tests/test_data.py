import numpy as np
import pytest

from peafowl import (
    ConfigError,
    DataError,
    RawTable,
    TableSchema,
    build_dataset,
    frequency_encode,
    load_csv,
    load_dataset,
    make_folds,
    min_max_normalize,
)
from peafowl.data import binarize_labels

from conftest import NSL_SCHEMA_YAML, write_nsl_fixture


def simple_schema(**overrides):
    fields = dict(column_count=5, label_column=4, categorical_columns=(1,))
    fields.update(overrides)
    return TableSchema(**fields)


class TestLoadCsv:
    def test_parses_uniform_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,tcp,2,3,normal\n4,udp,5,6,attack\n7,tcp,8,9,normal\n")
        table = load_csv(path, simple_schema(normal_labels=("normal",), attack_labels=("attack",)))
        assert len(table.columns) == 5 and len(table.columns[0]) == 3
        assert table.columns[1][1] == "udp"

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,tcp,2,3,normal\n1,udp,2,normal\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, simple_schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", simple_schema())


class TestFrequencyEncode:
    def test_counts_occurrences(self):
        table = RawTable(columns=[("tcp", "udp", "tcp")])
        matrix, encoding = frequency_encode(table, [0])
        assert matrix[:, 0].tolist() == [2.0, 1.0, 2.0]
        assert encoding[0] == {"tcp": 2.0, "udp": 1.0}

    def test_single_category(self):
        table = RawTable(columns=[("icmp",)])
        matrix, encoding = frequency_encode(table, [0])
        assert matrix[0, 0] == 1.0
        assert encoding[0] == {"icmp": 1.0}

    def test_unseen_category_maps_to_zero(self):
        fit_table = RawTable(columns=[("tcp", "udp")])
        _, encoding = frequency_encode(fit_table, [0])
        test_table = RawTable(columns=[("sctp",)])
        matrix, _ = frequency_encode(test_table, [0], encoding)
        assert matrix[0, 0] == 0.0

    def test_round_trips_on_training_table(self):
        table = RawTable(columns=[("a", "b", "a", "c", "b"), ("1", "2", "3", "4", "5")])
        matrix, encoding = frequency_encode(table, [0])
        again, _ = frequency_encode(table, [0], encoding)
        assert np.array_equal(matrix, again)

    def test_bad_numeric_cell(self):
        table = RawTable(columns=[("1",), ("x",)])
        with pytest.raises(DataError, match="row 1, feature 2"):
            frequency_encode(table, [0])

    def test_bad_cell_named_by_feature_not_csv_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("normal,1,2\nattack,3,x\n")
        with pytest.raises(DataError, match=r"row 2, feature 2: cannot parse 'x'"):
            load_dataset(path, TableSchema(column_count=3, label_column=0))


class TestMinMaxNormalize:
    def test_linear_map(self):
        scaled, bounds = min_max_normalize(np.array([[2.0], [4.0], [6.0]]))
        assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert bounds[0][0] == 2.0 and bounds[1][0] == 6.0

    def test_constant_column_maps_to_zero(self):
        scaled, _ = min_max_normalize(np.array([[7.0], [7.0]]))
        assert scaled[:, 0].tolist() == [0.0, 0.0]

    def test_test_time_clipping(self):
        _, bounds = min_max_normalize(np.array([[2.0], [6.0]]))
        scaled, _ = min_max_normalize(np.array([[8.0], [0.0]]), bounds)
        assert scaled[:, 0].tolist() == [1.0, 0.0]

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((50, 4)) * 10
        scaled, _ = min_max_normalize(matrix)
        again, _ = min_max_normalize(scaled)
        assert np.allclose(scaled, again, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="row 2, feature 1"):
            min_max_normalize(np.array([[1.0], [np.inf]]))


class TestLabels:
    def test_attack_names_map_to_one(self):
        schema = simple_schema()
        labels = binarize_labels(["normal", "neptune", "smurf", "guess_passwd", "normal"], schema)
        assert labels.tolist() == [0, 1, 1, 1, 0]

    def test_explicit_attack_set_rejects_strays(self):
        schema = simple_schema(normal_labels=("1",), attack_labels=("-1", "-2"))
        assert binarize_labels(["1", "-1", "-2"], schema).tolist() == [0, 1, 1]
        with pytest.raises(DataError, match="row 2"):
            binarize_labels(["1", "0"], schema)


class TestSchema:
    def test_from_yaml(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(NSL_SCHEMA_YAML)
        schema = TableSchema.from_yaml(path)
        assert schema.column_count == 43
        assert schema.label_column == 41
        assert schema.ignored_columns == (42,)
        assert len(schema.feature_columns) == 41

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("column_count: 3\nlabel_column: 2\nbogus: 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            TableSchema.from_yaml(path)

    def test_label_column_bounds(self):
        with pytest.raises(ConfigError):
            TableSchema(column_count=3, label_column=3)

    def test_fingerprint_stable_and_sensitive(self):
        a = simple_schema()
        b = simple_schema()
        c = simple_schema(categorical_columns=(2,))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestBuildDataset:
    def test_nsl_fixture_ingests_clean(self, tmp_path):
        csv_path = tmp_path / "nsl.csv"
        expected_maps = write_nsl_fixture(csv_path)
        schema_path = tmp_path / "nsl_schema.yaml"
        schema_path.write_text(NSL_SCHEMA_YAML)
        schema = TableSchema.from_yaml(schema_path)
        ds = load_dataset(csv_path, schema)
        assert ds.features.shape == (50, 41)
        assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)
        assert ds.encoding_map == expected_maps
        assert int(ds.labels.sum()) == 25  # half the fixture rows are attacks
        assert ds.feature_names[0] == "f1" and len(ds.feature_names) == 41

    def test_test_time_transform_reuses_training_state(self, tmp_path):
        schema = simple_schema(normal_labels=("normal",), attack_labels=("attack",))
        train_path = tmp_path / "train.csv"
        train_path.write_text("0,tcp,10,5,normal\n4,udp,20,5,attack\n2,tcp,30,5,normal\n")
        test_path = tmp_path / "test.csv"
        test_path.write_text("8,sctp,25,5,attack\n")
        train = load_dataset(train_path, schema)
        test = load_dataset(test_path, schema, fit_from=train)
        assert test.provenance == train.provenance
        # value 8 beyond the training max of 4 clips to 1; unseen sctp maps to 0
        assert test.features[0, 0] == 1.0
        assert test.features[0, 1] == 0.0
        # constant training column stays 0 at test time
        assert test.features[0, 3] == 0.0

    def test_dedup_pass(self):
        schema = simple_schema(drop_duplicates=True)
        rows = [["1", "a", "2", "3", "normal"]] * 3 + [["4", "b", "5", "6", "smurf"]]
        ds = build_dataset(RawTable(columns=list(zip(*rows))), schema)
        assert ds.n_rows == 2

    def test_column_layout_fit_and_apply(self, tmp_path):
        # label first, an ignored column in the middle, two categorical columns;
        # features are then columns 1, 3 and 4 (feature indices 0, 1, 2)
        schema = TableSchema(
            column_count=5,
            label_column=0,
            categorical_columns=(3, 1),
            ignored_columns=(2,),
            drop_duplicates=True,
        )
        train_path = tmp_path / "train.csv"
        train_path.write_text(
            "normal,tcp,9,http,1\n"
            "attack,udp,8,ftp,3\n"
            "\n"
            "normal,tcp,9,http,1\n"  # repeats row 1: dropped
            "attack,tcp,7,http,5\n"
            "normal,tcp,6,http,1\n"  # differs from row 1 only in the ignored column: kept
        )
        train = load_dataset(train_path, schema)
        assert train.encoding_map == {0: {"tcp": 3.0, "udp": 1.0}, 1: {"http": 3.0, "ftp": 1.0}}
        assert train.labels.tolist() == [0, 1, 1, 0]
        # encoded: [3, 3, 1], [1, 1, 3], [3, 3, 5], [3, 3, 1]; mins [1, 1, 1], maxs [3, 3, 5]
        assert train.features.tolist() == [
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 0.5],
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
        mins, maxs = train.normalization_bounds
        assert mins.tolist() == [1.0, 1.0, 1.0] and maxs.tolist() == [3.0, 3.0, 5.0]

        test_path = tmp_path / "test.csv"
        test_path.write_text("attack,sctp,0,ftp,9\nnormal,udp,0,http,2\nnormal,udp,0,http,2\n")
        test = load_dataset(test_path, schema, fit_from=train)
        # sctp is unseen (count 0, clipped to 0); 9 is beyond the training max of 5
        assert test.features.tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.25]]
        assert test.labels.tolist() == [1, 0]
        assert test.encoding_map is train.encoding_map
        assert test.provenance == train.provenance


class TestFolds:
    def test_even_split(self):
        plan = make_folds(10, 10, seed=0)
        sizes = [plan.fold_indices(f).size for f in range(10)]
        assert sizes == [1] * 10

    def test_remainder_distribution(self):
        plan = make_folds(11, 10, seed=0)
        sizes = sorted(plan.fold_indices(f).size for f in range(10))
        assert sizes == [1] * 9 + [2]

    def test_deterministic(self):
        a = make_folds(100, 7, seed=42)
        b = make_folds(100, 7, seed=42)
        assert np.array_equal(a.assignments, b.assignments)

    def test_partition(self):
        plan = make_folds(53, 5, seed=1)
        all_rows = np.concatenate([plan.fold_indices(f) for f in range(5)])
        assert sorted(all_rows.tolist()) == list(range(53))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            make_folds(5, 1, seed=0)
        with pytest.raises(ValueError):
            make_folds(5, 6, seed=0)
