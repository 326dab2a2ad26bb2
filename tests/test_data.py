import csv
import dataclasses
import random
import re
import warnings

import numpy as np
import pytest

from peafowl import (
    ConfigError,
    DataError,
    Dataset,
    RawTable,
    TableSchema,
    build_dataset,
    frequency_encode,
    load_csv,
    load_dataset,
    make_folds,
    min_max_normalize,
)
from peafowl.data import _first_rows, binarize_labels

from conftest import NSL_SCHEMA_YAML, traced_peak, write_nsl_fixture, write_toy_csv


def first_lines(n):
    """File lines of ``n`` rows read from a file with no blank lines."""
    return np.arange(1, n + 1)


def column(table, c):
    """The stripped cells of a coded column, row by row."""
    return tuple(table.cells[c][int(code)] for code in table.values[:, c])


def simple_schema(**overrides):
    fields = dict(column_count=5, label_column=4, categorical_columns=(1,))
    fields.update(overrides)
    return TableSchema(**fields)


class TestLoadCsv:
    def test_parses_uniform_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,tcp,2,3,normal\n4,udp,5,6,attack\n7,tcp,8,9,normal\n")
        table = load_csv(path, simple_schema(normal_labels=("normal",), attack_labels=("attack",)))
        assert table.values.shape == (3, 5)
        assert column(table, 1)[1] == "udp"

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,tcp,2,3,normal\n1,udp,2,normal\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, simple_schema())

    def test_string_cells_are_str(self, tmp_path):
        # the reader hands converters str, not bytes, so cells outside latin1 survive
        path = tmp_path / "t.csv"
        path.write_text("1,tcp,2,3,normal\n4,\u0442\u0441\u043f,5,6,\u653b\u6483\n")
        table = load_csv(path, simple_schema())
        for c in (1, 4):
            assert all(type(cell) is str for cell in column(table, c))
        assert column(table, 1) == ("tcp", "\u0442\u0441\u043f") and column(table, 4) == ("normal", "\u653b\u6483")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", simple_schema())

    @pytest.mark.parametrize(
        "text, line",
        [
            (b"1,caf\xe9,2,3,normal\n", 1),
            (b"1,tcp,2,3,normal\r\n\r\n4,udp,5,6,normal\r7,caf\xe9,8,9,normal\n", 4),
            # past the reader's first chunk: the line counts from the start of the file
            (b"1,tcp,2,3,normal\n" * 2000 + b"4,caf\xe9,5,6,normal\n", 2001),
        ],
        ids=["first-line", "mixed-line-breaks", "later-chunk"],
    )
    def test_byte_not_utf8_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: line {line}: byte 0xe9 is not UTF-8"):
            load_csv(path, simple_schema())


# label, numeric, categorical, numeric, ignored, numeric: features 1-4 are CSV columns 1, 2, 3 and 5
EDGE_SCHEMA = TableSchema(column_count=6, label_column=0, categorical_columns=(2,), ignored_columns=(4,))


def reference_table(path, schema):
    """The reader ``load_csv`` replaced, as an oracle: ``csv`` rows, one
    ``float`` per numeric cell, and stripped string cells coded here in
    first-seen order."""
    codes = {c: {} for c in (schema.label_column, *schema.categorical_columns, *schema.ignored_columns)}
    rows, lines = [], []
    with open(path, newline="") as handle:  # as the csv docs require
        reader = csv.reader(handle)
        for row in reader:
            if row:
                code = {c: seen.setdefault(row[c].strip(), len(seen)) for c, seen in codes.items()}
                rows.append([code[c] if c in code else float(cell) for c, cell in enumerate(row)])
                lines.append(reader.line_num)
    cells = {c: tuple(seen) for c, seen in codes.items()}
    return RawTable(values=np.array(rows, dtype=float), cells=cells, lines=np.array(lines))


def edge_case_csv(rng, n_rows):
    """Seeded CSV text for EDGE_SCHEMA that mixes quoting, spacing, line endings and number forms."""
    def number():
        x = rng.choice([rng.randint(-5, 5), rng.uniform(-1e3, 1e3), rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30)])
        text = rng.choice([repr(float(x)), str(int(x)), f"{x:.3e}", f"{x:E}", f"{x:.2f}", "-0", "+5", ".5", "5."])
        return rng.choice([text, f" {text} ", f"\t{text}", f'"{text}"', f'" {text} "'])

    def word(vocab):
        return rng.choice(
            [*vocab, '"a,b"', '"say ""hi"""', " tcp ", "#x", '"#y"', '"tc\np"', '"tc\n\np"', '"tc\r\np"', '"tc\rp"']
            + ["b\x0cq", "b\x1cq", "b\x85q", "b\u2028q"]  # str.splitlines breaks, csv does not
        )

    def row():
        label = rng.choice(["normal", "attack", " normal ", "#attack", '"normal"', "smurf"])
        return [label, number(), word(["tcp", "udp"]), number(), word(["", "1", "x y"]), number()]

    rows = [row() for _ in range(n_rows)]
    rows += [rng.choice(rows) for _ in range(n_rows // 4)]  # repeats, for dedup
    out = []
    for cells in rows:
        out.append("\n" * rng.choice([0, 0, 0, 1, 2]))  # blank lines
        out.append(",".join(cells) + rng.choice(["\n", "\r\n", "\r"]))
    text = "".join(out)
    return text.rstrip("\r\n") if rng.random() < 0.5 else text  # missing final newline


TOY_SCHEMA = TableSchema(column_count=4, label_column=3, categorical_columns=(1,), attack_labels=("anomaly",))


def toy_with_line_breaks(tmp_path, bad_row=None):
    """The toy training file with a blank line 4 (and ``bad_row`` as line 8), as an LF and a CRLF file."""
    write_toy_csv(tmp_path / "toy.csv")
    lines = (tmp_path / "toy.csv").read_text().splitlines()
    lines.insert(3, "")
    if bad_row:
        lines.insert(7, bad_row)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes("".join(line + "\n" for line in lines).encode())
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode())
    return lf, crlf


class TestReader:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("dedup", [False, True])
    def test_matches_csv_and_float(self, tmp_path, seed, dedup):
        rng = random.Random(seed)
        schema = dataclasses.replace(EDGE_SCHEMA, drop_duplicates=dedup)
        train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
        train_path.write_text(edge_case_csv(rng, 40), newline="")
        test_path.write_text(edge_case_csv(rng, 15), newline="")
        got = build_dataset(load_csv(train_path, schema), schema)
        want = build_dataset(reference_table(train_path, schema), schema)
        got_test = build_dataset(load_csv(test_path, schema), schema, fit_from=got)
        want_test = build_dataset(reference_table(test_path, schema), schema, fit_from=want)
        for a, b in ((got, want), (got_test, want_test)):
            assert a.features.tobytes() == b.features.tobytes() and a.features.shape == b.features.shape
            assert a.labels.tolist() == b.labels.tolist()
            assert repr(a.encoding_map) == repr(b.encoding_map)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a.normalization_bounds, b.normalization_bounds))
            assert a.provenance == b.provenance

    def test_hash_cells_are_data(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("#normal,1,#tcp,2,#,3\nnormal,4,tcp,5,x,6\n")
        table = load_csv(path, EDGE_SCHEMA)
        assert column(table, 0) == ("#normal", "normal") and column(table, 2) == ("#tcp", "tcp")
        assert table.values[:, 1].tolist() == [1.0, 4.0]

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
    def test_non_finite_named_as_before(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"normal,1,tcp,2,x,3\r\n\r\nattack,4,udp,{cell},y,5\r\n")
        with pytest.raises(DataError, match=r"non-finite value at row 3, feature 3") as got:
            build_dataset(load_csv(path, EDGE_SCHEMA), EDGE_SCHEMA)
        with pytest.raises(DataError) as want:
            build_dataset(reference_table(path, EDGE_SCHEMA), EDGE_SCHEMA)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
    def test_float_accepts_but_reader_rejects(self, tmp_path, cell):
        # float() takes digit-group underscores and non-ASCII digits; NumPy's reader does not
        float(cell)
        path = tmp_path / "t.csv"
        path.write_text(f"normal,1,tcp,2,x,3\n\nattack,4,udp,{cell},y,5\n")
        with pytest.raises(DataError, match=rf"row 3, feature 3: cannot parse {cell!r} as a number"):
            load_csv(path, EDGE_SCHEMA)

    @pytest.mark.parametrize(
        "last_row, message",
        [
            ("attack,x", r"row 5, feature 1: cannot parse 'x'"),
            ("bogus,3", r"row 5: label 'bogus' matches neither"),
            ("attack,inf", r"non-finite value at row 5, feature 1"),
        ],
        ids=["parse", "label", "non-finite"],
    )
    @pytest.mark.parametrize("dedup", [False, True])
    def test_errors_name_the_file_line(self, tmp_path, last_row, message, dedup):
        # line 2 repeats line 1 (dropped under dedup) and line 3 is blank
        schema = TableSchema(column_count=2, label_column=0, attack_labels=("attack",), drop_duplicates=dedup)
        path = tmp_path / "t.csv"
        path.write_text(f"normal,1\nnormal,1\n\nnormal,2\n{last_row}\n")
        with pytest.raises(DataError, match=message):
            load_dataset(path, schema)

    @pytest.mark.parametrize("text", ["", "\n", "\n\r\n\n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_csv(path, EDGE_SCHEMA)

    def test_width_must_match_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\nnormal,1,tcp,2,x,3,4\nnormal,1,tcp,2,x,3,4\n")
        with pytest.raises(DataError, match="row 2 has 7 columns, expected 6"):
            load_csv(path, EDGE_SCHEMA)

    def test_first_rejected_row_wins(self, tmp_path):
        # a bad number on line 1 comes before a short row on line 2
        path = tmp_path / "t.csv"
        path.write_text("normal,1,tcp,2,x,oops\nnormal,1,tcp\n")
        with pytest.raises(DataError, match="row 1, feature 4: cannot parse 'oops'"):
            load_csv(path, EDGE_SCHEMA)

    def test_quoted_cell_across_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('normal,1,"tc\np",2,x,3\nbogus,4,udp,5,y,6\n')
        schema = dataclasses.replace(EDGE_SCHEMA, attack_labels=("attack",))
        table = load_csv(path, schema)
        assert column(table, 2) == ("tc\np", "udp") and table.lines.tolist() == [1, 3]
        with pytest.raises(DataError, match="row 3: label 'bogus'"):
            build_dataset(table, schema)

    def test_form_feed_inside_a_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("normal,1,b\x0cq")
        schema = TableSchema(column_count=3, label_column=0, categorical_columns=(2,))
        table = load_csv(path, schema)
        assert column(table, 2) == ("b\x0cq",) and table.lines.tolist() == [1]

    def test_quoted_cell_keeps_its_carriage_returns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'normal,1,"b\r\nq"\nnormal,2,"b\rq"\n')
        table = load_csv(path, TableSchema(column_count=3, label_column=0, categorical_columns=(2,)))
        assert column(table, 2) == ("b\r\nq", "b\rq") and table.lines.tolist() == [1, 3]

    def test_crlf_file_reads_as_lf(self, tmp_path):
        lf, crlf = toy_with_line_breaks(tmp_path)
        a, b = load_dataset(lf, TOY_SCHEMA), load_dataset(crlf, TOY_SCHEMA)
        assert a.features.tobytes() == b.features.tobytes() and a.labels.tobytes() == b.labels.tobytes()
        assert repr((a.encoding_map, a.provenance)) == repr((b.encoding_map, b.provenance))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.normalization_bounds, b.normalization_bounds))
        assert load_csv(crlf, TOY_SCHEMA).lines.tolist() == [1, 2, 3, *range(5, 62)]

    @pytest.mark.parametrize(
        "bad_row, message",
        [("0.5,tcp,x,normal", "row 8, feature 3: cannot parse 'x'"), ("0.5,tcp,1,bogus", "row 8: label 'bogus'")],
        ids=["parse", "label"],
    )
    def test_crlf_file_names_the_lf_lines(self, tmp_path, bad_row, message):
        for path in toy_with_line_breaks(tmp_path, bad_row):
            with pytest.raises(DataError, match=message):
                load_dataset(path, TOY_SCHEMA)

    def test_quoted_cell_holding_a_blank_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('normal,1,"tc\n\np",2,x,3\n\nnormal,4,udp,5,y,6\n')
        table = load_csv(path, EDGE_SCHEMA)
        assert column(table, 2) == ("tc\n\np", "udp") and table.lines.tolist() == [1, 5]


class TestFrequencyEncode:
    def test_counts_occurrences(self):
        table = RawTable(values=np.array([[0.0], [1.0], [0.0]]), cells={0: ("tcp", "udp")}, lines=first_lines(3))
        matrix, encoding = frequency_encode(table)
        assert matrix[:, 0].tolist() == [2.0, 1.0, 2.0]
        assert encoding[0] == {"tcp": 2.0, "udp": 1.0}

    def test_single_category(self):
        table = RawTable(values=np.array([[0.0]]), cells={0: ("icmp",)}, lines=first_lines(1))
        matrix, encoding = frequency_encode(table)
        assert matrix[0, 0] == 1.0
        assert encoding[0] == {"icmp": 1.0}

    def test_unseen_category_maps_to_zero(self):
        fit_table = RawTable(values=np.array([[0.0], [1.0]]), cells={0: ("tcp", "udp")}, lines=first_lines(2))
        _, encoding = frequency_encode(fit_table)
        test_table = RawTable(values=np.array([[0.0]]), cells={0: ("sctp",)}, lines=first_lines(1))
        matrix, _ = frequency_encode(test_table, encoding)
        assert matrix[0, 0] == 0.0

    def test_round_trips_on_training_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,1,normal\nb,2,normal\na,3,attack\nc,4,normal\nb,5,attack\n")
        raw = load_csv(path, TableSchema(column_count=3, label_column=2, categorical_columns=(0,)))

        def features():  # frequency_encode replaces the codes in place
            return RawTable(values=raw.values[:, :2].copy(), cells={0: raw.cells[0]}, lines=raw.lines)

        matrix, encoding = frequency_encode(features())
        again, _ = frequency_encode(features(), encoding)
        assert np.array_equal(matrix, again)
        assert matrix.tolist() == [[2.0, 1.0], [2.0, 2.0], [2.0, 3.0], [1.0, 4.0], [2.0, 5.0]]

    def test_bad_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("tcp,x,normal\n")
        schema = TableSchema(column_count=3, label_column=2, categorical_columns=(0,))
        with pytest.raises(DataError, match="row 1, feature 2: cannot parse 'x' as a number"):
            load_csv(path, schema)

    def test_bad_cell_named_by_feature_not_csv_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("normal,1,2\nattack,3,x\n")
        with pytest.raises(DataError, match=r"row 2, feature 2: cannot parse 'x'"):
            load_dataset(path, TableSchema(column_count=3, label_column=0))


class TestMinMaxNormalize:
    def test_linear_map(self):
        scaled, bounds = min_max_normalize(np.array([[2.0], [4.0], [6.0]]), first_lines(3))
        assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert bounds[0][0] == 2.0 and bounds[1][0] == 6.0

    def test_constant_column_maps_to_zero(self):
        scaled, _ = min_max_normalize(np.array([[7.0], [7.0]]), first_lines(2))
        assert scaled[:, 0].tolist() == [0.0, 0.0]

    def test_test_time_clipping(self):
        _, bounds = min_max_normalize(np.array([[2.0], [6.0]]), first_lines(2))
        scaled, _ = min_max_normalize(np.array([[8.0], [0.0]]), first_lines(2), bounds)
        assert scaled[:, 0].tolist() == [1.0, 0.0]

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((50, 4)) * 10
        scaled, _ = min_max_normalize(matrix, first_lines(50))
        again, _ = min_max_normalize(scaled, first_lines(50))
        assert np.allclose(scaled, again, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="row 2, feature 1"):
            min_max_normalize(np.array([[1.0], [np.inf]]), first_lines(2))

    @pytest.mark.parametrize("fitted", [True, False], ids=["fit", "apply"])
    def test_one_temporary_same_bits_input_untouched(self, fitted):
        rng = np.random.default_rng(5)
        matrix = rng.normal(0.0, 100.0, (20_000, 8))
        matrix[:, 3] = 7.0  # a constant column
        original = matrix.copy()
        bounds = None if fitted else (original.min(axis=0) + 20.0, original.max(axis=0) - 20.0)
        peak = traced_peak(lambda: min_max_normalize(matrix, first_lines(20_000), bounds))
        scaled, _ = min_max_normalize(matrix, first_lines(20_000), bounds)
        mins, maxs = (original.min(axis=0), original.max(axis=0)) if fitted else bounds
        span = maxs - mins
        want = (original - mins) / np.where(span > 0, span, 1.0)
        want[:, span <= 0] = 0.0
        if not fitted:
            want = np.clip(want, 0.0, 1.0)
        assert scaled.tobytes() == want.tobytes()
        assert matrix.tobytes() == original.tobytes()
        # the result, the finiteness mask (an eighth of it) and small vectors; a second temporary would double it
        assert peak < 1.5 * matrix.nbytes


def label_table(labels):
    """A table for ``simple_schema`` holding ``labels`` as codes in column 4."""
    cells = tuple(dict.fromkeys(labels))
    values = np.zeros((len(labels), 5))
    values[:, 4] = [cells.index(label) for label in labels]
    return RawTable(values=values, cells={4: cells}, lines=first_lines(len(labels)))


class TestLabels:
    def test_attack_names_map_to_one(self):
        schema = simple_schema()
        labels = binarize_labels(label_table(["normal", "neptune", "smurf", "guess_passwd", "normal"]), schema)
        assert labels.tolist() == [0, 1, 1, 1, 0]

    def test_explicit_attack_set_rejects_strays(self):
        schema = simple_schema(normal_labels=("1",), attack_labels=("-1", "-2"))
        assert binarize_labels(label_table(["1", "-1", "-2"]), schema).tolist() == [0, 1, 1]
        with pytest.raises(DataError, match="row 2"):
            binarize_labels(label_table(["1", "0"]), schema)


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("column_count", "abc"),
            ("column_count", "3.9"),
            ("label_column", "true"),
            ("categorical_columns", "[0, false]"),
            ("ignored_columns", "[1.0]"),
            ("drop_duplicates", '"no"'),
            ("drop_duplicates", "0"),
            ("normal_labels", "[true]"),
            ("attack_labels", "[-1.5]"),
            ("feature_names", "a"),
        ],
    )
    def test_yaml_types_checked(self, tmp_path, key, value):
        path = tmp_path / "schema.yaml"
        fields = {"column_count": "3", "label_column": "2", key: value}
        path.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
        with pytest.raises(ConfigError, match=rf"schema file {re.escape(str(path))}: '{key}'"):
            TableSchema.from_yaml(path)

    def test_yaml_integer_labels_and_bools(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("column_count: 3\nlabel_column: 2\nnormal_labels: [1]\nattack_labels: [-1, -2]\n")
        schema = TableSchema.from_yaml(path)
        assert schema.normal_labels == ("1",) and schema.attack_labels == ("-1", "-2")
        for value in (False, True):
            path.write_text(f"column_count: 3\nlabel_column: 2\ndrop_duplicates: {str(value).lower()}\n")
            assert TableSchema.from_yaml(path).drop_duplicates is value

    def test_label_column_bounds(self):
        with pytest.raises(ConfigError):
            TableSchema(column_count=3, label_column=3)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("categorical_columns", "null", ()),
            ("categorical_columns", "[]", ()),
            ("ignored_columns", "null", ()),
            ("ignored_columns", "[]", ()),
            ("normal_labels", "null", ("normal",)),
            ("normal_labels", "[]", ("normal",)),
            ("attack_labels", "null", None),
            ("attack_labels", "[]", ()),
            ("feature_names", "null", None),
        ],
    )
    def test_yaml_null_and_empty_lists(self, tmp_path, key, value, expected):
        """A null or empty list takes the field's default, but an empty attack_labels stays empty."""
        path = tmp_path / "schema.yaml"
        path.write_text(f"column_count: 3\nlabel_column: 2\n{key}: {value}\n")
        schema = TableSchema.from_yaml(path)
        assert getattr(schema, key) == expected
        assert schema == TableSchema(column_count=3, label_column=2, **{key: expected})

    def test_yaml_feature_names_are_strings_of_the_feature_count(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("column_count: 3\nlabel_column: 2\nfeature_names: [1, b]\n")
        assert TableSchema.from_yaml(path).feature_names == ("1", "b")
        path.write_text("column_count: 3\nlabel_column: 2\nfeature_names: []\n")
        with pytest.raises(ConfigError, match="feature_names has 0 entries, expected 2"):
            TableSchema.from_yaml(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("- 3\n- 2\n", "must hold a mapping"),
            ("column_count: 3\n", "missing required key 'label_column'"),
        ],
        ids=["not-a-mapping", "missing-key"],
    )
    def test_yaml_layout_checked(self, tmp_path, text, message):
        path = tmp_path / "schema.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"schema file {re.escape(str(path))}:? .*{re.escape(message)}"):
            TableSchema.from_yaml(path)

    def test_unreadable_yaml_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read schema file"):
            TableSchema.from_yaml(tmp_path)  # a directory

    def test_yaml_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_bytes(b"column_count: 2\nlabel_column: 1\nnormal_labels: [caf\xe9]\n")
        with pytest.raises(DataError, match=f"cannot read schema file {re.escape(str(path))}: .*0xe9"):
            TableSchema.from_yaml(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(column_count=1, label_column=0), "at least one feature column"),
            (dict(categorical_columns=(3,)), "column index 3 outside table width"),
            (dict(ignored_columns=(-1,)), "column index -1 outside table width"),
            (dict(categorical_columns=(2,)), "may not include label or ignored columns"),
            (dict(categorical_columns=(0,), ignored_columns=(0,)), "may not include label or ignored columns"),
            (dict(ignored_columns=(2,)), "label column cannot be ignored"),
            (dict(ignored_columns=(0, 1)), "schema leaves no feature columns"),
            (dict(feature_names=("a",)), "feature_names has 1 entries, expected 2"),
        ],
        ids=[
            "one-column", "categorical-outside", "ignored-outside", "categorical-label",
            "categorical-ignored", "label-ignored", "no-features", "feature-names-length",
        ],
    )
    def test_layout_errors(self, fields, message):
        fields = {"column_count": 3, "label_column": 2, **fields}
        with pytest.raises(ConfigError, match=re.escape(message)):
            TableSchema(**fields)

    def test_fingerprint_stable_and_sensitive(self):
        a = simple_schema()
        b = simple_schema()
        c = simple_schema(categorical_columns=(2,))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestBuildDataset:
    def test_fit_from_needs_normalization_bounds(self, tmp_path):
        schema = simple_schema()
        path = tmp_path / "t.csv"
        path.write_text("0,tcp,10,5,normal\n4,udp,20,5,attack\n")
        fit_from = Dataset.from_arrays(np.zeros((2, 4)), [0, 1])
        with pytest.raises(DataError, match="carries no normalization bounds"):
            build_dataset(load_csv(path, schema), schema, fit_from=fit_from)

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

    def test_dedup_pass(self, tmp_path):
        schema = simple_schema(drop_duplicates=True)
        path = tmp_path / "t.csv"
        path.write_text("1,a,2,3,normal\n" * 3 + "4,b,5,6,smurf\n")
        ds = build_dataset(load_csv(path, schema), schema)
        assert ds.n_rows == 2

    def test_dedup_compares_parsed_numbers(self, tmp_path):
        # 1 and 1.0, 2 and 2e0, 0 and -0 are one value each; " a " strips to "a";
        # "b" differs in a string column, so its row is kept
        schema = simple_schema(drop_duplicates=True)
        path = tmp_path / "t.csv"
        path.write_text("1,a,2,0,normal\n1.0, a ,2e0,-0,normal\n1,b,2,0,normal\n")
        ds = build_dataset(load_csv(path, schema), schema)
        assert ds.n_rows == 2
        assert ds.encoding_map == {1: {"a": 1.0, "b": 1.0}}

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


class TestFromArrays:
    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1, 2, 1], "row 3: label 2 is not 0 or 1"),
            ([0, 0.7, 1, 0], "row 2: label 0.7 is not 0 or 1"),
            ([1, 0, 1, -1], "row 4: label -1 is not 0 or 1"),
            ([np.nan, 0, 1, 0], "row 1: label nan is not 0 or 1"),
        ],
        ids=["two", "fraction", "minus-one", "nan"],
    )
    def test_label_other_than_0_or_1_is_rejected(self, labels, message):
        # Truncated to int, 0.7 became 0; a 2 counted double in the KNN vote
        # and fell out of every confusion cell.
        with pytest.raises(DataError, match=re.escape(message)):
            Dataset.from_arrays(np.zeros((4, 2)), labels)

    @pytest.mark.parametrize("labels", [[0.0, 1.0, 1.0, 0.0], [False, True, True, False]], ids=["float", "bool"])
    def test_zero_one_labels_are_stored_as_ints(self, labels):
        ds = Dataset.from_arrays(np.zeros((4, 2)), labels)
        assert ds.labels.dtype.kind == "i" and ds.labels.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize(
        "features, labels",
        [(np.zeros(4), [0, 1, 0, 1]), (np.zeros((4, 2)), [0, 1, 0]), (np.zeros((4, 2)), np.zeros((4, 1)))],
        ids=["1-d-features", "short-labels", "2-d-labels"],
    )
    def test_shape_mismatch_is_a_value_error(self, features, labels):
        with pytest.raises(ValueError, match="features must be 2-D with one label per row"):
            Dataset.from_arrays(features, labels)

    def test_features_are_c_ordered_float64(self):
        x = np.asfortranarray(np.arange(12).reshape(4, 3))
        ds = Dataset.from_arrays(x, [0, 1, 0, 1])
        assert ds.features.flags.c_contiguous and ds.features.dtype == np.float64
        assert np.array_equal(ds.features, x)


class TestDatasetChecks:
    """Direct construction and ``take`` get the checks that ``from_arrays`` gets."""

    def test_direct_construction_rejects_label_other_than_0_or_1(self):
        with pytest.raises(DataError, match=re.escape("row 2: label 2 is not 0 or 1")):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 2, 1]))

    def test_direct_construction_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="features must be 2-D with one label per row"):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_direct_construction_stores_c_ordered_float64_and_int_labels(self):
        x = np.asfortranarray(np.arange(12).reshape(4, 3))
        ds = Dataset(features=x, labels=np.array([0.0, 1.0, 1.0, 0.0]))
        assert ds.features.flags.c_contiguous and ds.features.dtype == np.float64
        assert np.array_equal(ds.features, x)
        assert ds.labels.dtype.kind == "i" and ds.labels.tolist() == [0, 1, 1, 0]

    def test_take_keeps_rows_and_transform_state(self):
        ds = Dataset(
            features=np.arange(8.0).reshape(4, 2),
            labels=np.array([0, 1, 1, 0]),
            encoding_map={1: {"tcp": 2.0}},
            normalization_bounds=(np.zeros(2), np.ones(2)),
            provenance="p",
        )
        part = ds.take(np.array([3, 1]))
        assert part.features.tolist() == [[6.0, 7.0], [2.0, 3.0]] and part.labels.tolist() == [0, 1]
        assert part.features.flags.c_contiguous
        assert part.encoding_map is ds.encoding_map and part.normalization_bounds is ds.normalization_bounds
        assert part.provenance == "p"


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

    @pytest.mark.parametrize(("n_rows", "k", "name"), [
        (10, 2.5, "k"), (10, 3.0, "k"), (10, True, "k"), (10, "3", "k"),
        (10.0, 3, "n_rows"), (np.float64(10), 3, "n_rows"), (True, 1, "n_rows"),
    ])
    def test_counts_must_be_ints(self, n_rows, k, name):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(k if name == 'k' else n_rows))}$"):
            make_folds(n_rows, k, seed=0)

    def test_numpy_integers_are_accepted(self):
        plan = make_folds(np.int64(10), np.int32(3), seed=0)
        assert type(plan.k) is int and plan.k == 3
        assert np.array_equal(plan.assignments, make_folds(10, 3, seed=0).assignments)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
    def test_seed_must_be_an_int(self, seed):
        # 1.5 once reached SeedSequence's bare TypeError, True passed as 1 and None drew fresh entropy
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            make_folds(30, 3, seed)

    def test_seed_must_not_be_negative(self):
        # once NumPy's "expected non-negative integer", which did not name the setting
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            make_folds(30, 3, -1)
        assert make_folds(30, 3, 0).seed == 0
        assert np.array_equal(make_folds(30, 3, np.int64(7)).assignments, make_folds(30, 3, 7).assignments)


class TestFirstRows:
    """The row grouping behind drop_duplicates and KNN's distinct training rows."""

    def test_first_occurrences_and_inverse(self):
        values = np.array([[2.0, 1.0], [0.0, 5.0], [2.0, 1.0], [-0.0, 5.0], [7.0, -0.0], [7.0, 0.0], [0.0, 5.0]])
        first, inverse = _first_rows(values)
        assert first.tolist() == [0, 1, 4]  # -0.0 and 0.0 are one value
        assert inverse.tolist() == [0, 1, 0, 1, 2, 2, 1]
        assert np.array_equal(values[first][inverse] + 0.0, values + 0.0)

    def test_no_rows_and_no_repeats(self):
        first, inverse = _first_rows(np.empty((0, 3)))
        assert first.size == 0 and inverse.size == 0
        values = np.random.default_rng(3).random((50, 4))
        first, inverse = _first_rows(values)
        assert first.tolist() == list(range(50)) and inverse.tolist() == list(range(50))
