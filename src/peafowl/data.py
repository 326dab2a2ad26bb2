"""CSV ingestion for labeled intrusion-detection-style tables.

Each file is parsed once by NumPy's C reader into one float64 matrix: a
numeric column holds numbers, and a categorical, label or ignored column
holds codes of its stripped cells, so every later step works on codes.  Each
row keeps its 1-based line in the file so that every error names it.  The
schema picks feature columns by reference and each is transformed in one
pass: categorical values are replaced by their occurrence counts in the
training table, numeric values pass through.  Every feature is then min-max
scaled into [0, 1], and labels are binarized to 0 = normal, 1 =
anomaly/attack.  Encoding maps and scaling bounds are fit on training data
only and reused verbatim at test time; a provenance hash ties train/test
datasets to one transform.  The schema alone decides whether repeated rows,
equal in every parsed value and stripped cell, are dropped.  PyYAML,
``csv``, ``hashlib`` and ``json`` are imported by the functions that use
them, so ``import peafowl`` loads none of them.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

# yaml, csv, hashlib and json are imported where they are used: together they cost
# about a fifth of `import peafowl`, and an optimizer or selection run calls none of them.

from .errors import ConfigError, DataError

__all__ = [
    "TableSchema",
    "RawTable",
    "Dataset",
    "FoldPlan",
    "load_csv",
    "frequency_encode",
    "min_max_normalize",
    "binarize_labels",
    "build_dataset",
    "load_dataset",
    "make_folds",
    "read_yaml_settings",
]

_SCHEMA_TYPES = {
    "column_count": (int,),
    "label_column": (int,),
    "categorical_columns": [int],
    "ignored_columns": [int],
    "normal_labels": [str, int],  # integers too: Kyoto 2006+ labels are 1, -1 and -2
    "attack_labels": [str, int],
    "feature_names": [str, int],
    "drop_duplicates": (bool,),
}


def read_yaml_settings(path, kind: str, types: dict, required=(), unreadable=ConfigError) -> dict:
    """The mapping in the YAML file ``path``, each value checked against ``types``.

    Requires a mapping (an empty file is an empty one), rejects keys not in
    ``types`` and checks that ``required`` keys are present.  ``types`` maps
    a key to its accepted value types or, for a list key, to a list of its
    entries' types (entries come back as a tuple; null stays None).  Types
    are compared with ``type()``, so a YAML bool never passes as an int; an
    int passes as a float, widened.  Each fault is a ``ConfigError`` naming
    the file and the key, except a file that cannot be read or is not UTF-8,
    which raises ``unreadable``.
    """
    import yaml

    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(f"cannot read {kind} file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{kind} file {path} is not valid YAML: {exc}") from exc
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{kind} file {path} must hold a mapping")
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{kind} file {path}: unknown keys {sorted(map(str, unknown))}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{kind} file {path}: missing required key '{key}'")

    def typed(key, value, accepted):
        if type(value) is int and float in accepted:
            return float(value)
        if type(value) not in accepted:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in accepted)
            raise ConfigError(f"{kind} file {path}: '{key}' takes {names} values, not {value!r}")
        return value

    for key, value in raw.items():
        accepted = types[key]
        if not isinstance(accepted, list):
            raw[key] = typed(key, value, accepted)
        elif value is not None:
            if not isinstance(value, list):
                raise ConfigError(f"{kind} file {path}: '{key}' must be a list")
            raw[key] = tuple(typed(key, entry, accepted) for entry in value)
    return raw


@dataclass(frozen=True)
class TableSchema:
    """Column layout of a raw CSV table (indices are 0-based, no header row).

    ``normal_labels`` map to class 0.  When ``attack_labels`` is None every
    other label is an attack; otherwise a label in neither set is an error.
    """

    column_count: int
    label_column: int
    categorical_columns: tuple[int, ...] = ()
    ignored_columns: tuple[int, ...] = ()
    normal_labels: tuple[str, ...] = ("normal",)
    attack_labels: Optional[tuple[str, ...]] = None
    feature_names: Optional[tuple[str, ...]] = None
    drop_duplicates: bool = False

    def __post_init__(self):
        if self.column_count < 2:
            raise ConfigError("schema needs at least one feature column and a label column")
        if not 0 <= self.label_column < self.column_count:
            raise ConfigError(f"label_column {self.label_column} outside table width")
        special = set(self.ignored_columns) | {self.label_column}
        for c in list(self.categorical_columns) + list(self.ignored_columns):
            if not 0 <= c < self.column_count:
                raise ConfigError(f"column index {c} outside table width")
        if set(self.categorical_columns) & special:
            raise ConfigError("categorical_columns may not include label or ignored columns")
        if self.label_column in self.ignored_columns:
            raise ConfigError("label column cannot be ignored")
        n_feat = self.column_count - 1 - len(set(self.ignored_columns))
        if n_feat < 1:
            raise ConfigError("schema leaves no feature columns")
        if self.feature_names is not None and len(self.feature_names) != n_feat:
            raise ConfigError(
                f"feature_names has {len(self.feature_names)} entries, expected {n_feat}"
            )

    @property
    def feature_columns(self) -> list[int]:
        skip = set(self.ignored_columns) | {self.label_column}
        return [c for c in range(self.column_count) if c not in skip]

    @classmethod
    def from_yaml(cls, path) -> "TableSchema":
        """The schema in a YAML file, typed by :func:`read_yaml_settings`.

        ``column_count`` and ``label_column`` are required ints, column lists
        hold ints, ``drop_duplicates`` is a bool, and label and feature-name
        lists hold strings or ints, kept as strings.  A null or empty column
        list or ``normal_labels`` takes the field's default; an empty
        ``attack_labels`` stays empty.  An unreadable file is a
        ``DataError``; a bad value, or a bad layout, a ``ConfigError``.
        """
        required = ("column_count", "label_column")
        raw = read_yaml_settings(path, "schema", _SCHEMA_TYPES, required, unreadable=DataError)
        for key in ("normal_labels", "attack_labels", "feature_names"):
            if raw.get(key) is not None:
                raw[key] = tuple(map(str, raw[key]))
        for key in ("categorical_columns", "ignored_columns", "normal_labels"):
            if key in raw and not raw[key]:
                del raw[key]
        return cls(**raw)

    def fingerprint(self) -> str:
        import hashlib
        import json

        payload = {
            "column_count": self.column_count,
            "label_column": self.label_column,
            "categorical_columns": sorted(self.categorical_columns),
            "ignored_columns": sorted(self.ignored_columns),
            "normal_labels": sorted(self.normal_labels),
            "attack_labels": None if self.attack_labels is None else sorted(self.attack_labels),
            "feature_names": None if self.feature_names is None else list(self.feature_names),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class RawTable:
    """Cells as one row-major float64 matrix, ``values[row, c]``.

    A numeric column holds parsed numbers.  A categorical, label or ignored
    column ``c`` holds codes into ``cells[c]``, that column's distinct
    stripped cells in first-seen order.  ``lines[row]`` is the row's 1-based
    line in its file.
    """

    values: np.ndarray
    cells: dict
    lines: np.ndarray


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)


@dataclass
class Dataset:
    """Normalized feature matrix plus binary labels and transform state.

    Features are stored as a C-ordered float64 matrix and labels as 0/1
    ints, one per row; any other label is a DataError naming its row.
    """

    features: np.ndarray
    labels: np.ndarray
    encoding_map: dict = field(default_factory=dict)
    normalization_bounds: Optional[tuple[np.ndarray, np.ndarray]] = None
    provenance: Optional[str] = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if self.features.ndim != 2 or labels.shape != (self.features.shape[0],):
            raise ValueError("features must be 2-D with one label per row")
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise DataError(f"row {bad[0] + 1}: label {labels[bad[0]]} is not 0 or 1")
        self.labels = labels.astype(int, copy=False)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, rows) -> "Dataset":
        """Row subset sharing this dataset's transform state."""
        return replace(self, features=self.features[rows], labels=self.labels[rows])

    @classmethod
    def from_arrays(cls, features, labels) -> "Dataset":
        """A dataset of ``features`` and ``labels`` with no transform state."""
        return cls(features=features, labels=labels)


# A line that holds only its line break, as a file opened with ``newline=""`` reads it.
_BLANK = frozenset(("\n", "\r\n", "\r"))


def load_csv(path, schema: TableSchema) -> RawTable:
    """Parse a headerless CSV in one pass of NumPy's C reader.

    Numeric feature cells are parsed to float64 in C, with no Python string
    per cell; other cells become codes (see ``RawTable``).  Blank lines are
    skipped and every other row must be ``schema.column_count`` wide.  A
    quoted cell may span lines and keeps its line breaks, as in ``csv``.
    The file is read as UTF-8.
    """
    path = Path(path)
    try:
        # Untranslated, as ``csv`` reads: lines end at "\r\n", "\r" or "\n" and keep
        # that ending, so a quoted cell keeps its own.  A form feed or U+2028 is
        # cell data (str.splitlines would break there).
        with path.open(newline="", encoding="utf-8") as handle:
            text_lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _decode_error(path) from exc
    blank = np.fromiter(map(_BLANK.__contains__, text_lines), dtype=bool, count=len(text_lines))
    lines = np.flatnonzero(~blank) + 1
    if lines.size == 0:
        raise DataError(f"{path}: no data rows")
    # Label, categorical and ignored cells become first-seen codes through a C-level
    # dict lookup; each distinct cell is stripped once, after the read, and recoded.
    string_columns = (schema.label_column, *schema.categorical_columns, *schema.ignored_columns)
    vocabularies = {c: defaultdict(itertools.count().__next__) for c in string_columns}
    try:
        matrix = np.loadtxt(
            text_lines,
            dtype=float,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
            encoding=None,  # converters get str, not NumPy 1.x's default latin1 bytes
            converters={c: vocab.__getitem__ for c, vocab in vocabularies.items()},
        )
    except ValueError as exc:
        raise _rejected_cell(path, text_lines, schema) or DataError(f"{path}: {exc}") from exc
    if matrix.shape[1] != schema.column_count:
        raise _width_error(path, lines[0], matrix.shape[1], schema)
    if matrix.shape[0] != lines.size:  # a quoted cell spans lines
        lines = np.array([line for line, _ in _records(text_lines)])
    cells = {}
    for c, vocab in vocabularies.items():
        stripped = {}
        recode = np.array([stripped.setdefault(cell.strip(), len(stripped)) for cell in vocab], dtype=float)
        matrix[:, c] = recode[matrix[:, c].astype(np.intp)]
        cells[c] = tuple(stripped)
    return RawTable(values=matrix, cells=cells, lines=lines)


def _decode_error(path: Path) -> DataError:
    """The error for a file that is not UTF-8, naming the 1-based line of its first bad byte.

    The reader's error places that byte in the chunk it decoded, not in the
    file, so only this error path decodes the whole file again.
    """
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return DataError(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8")
    return DataError(f"{path}: not UTF-8")


def _records(text_lines):
    """``(first line, cells)`` of each non-empty CSV record, read by ``csv``."""
    import csv

    reader = csv.reader(text_lines)
    line = 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def _width_error(path, line, width, schema: TableSchema) -> DataError:
    return DataError(f"{path}: row {line} has {width} columns, expected {schema.column_count}")


def _parses_as_number(cell: str) -> bool:
    """Whether NumPy's reader takes a stripped cell as a float64.

    It accepts what ``float`` accepts, less digit-group underscores and
    non-ASCII digits.
    """
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _rejected_cell(path, text_lines, schema: TableSchema) -> Optional[DataError]:
    """The error for the first row, in file order, that the reader rejected.

    Only called once the reader has failed; ``None`` if this rescan finds no
    fault.
    """
    numeric = [
        (c, feature)
        for feature, c in enumerate(schema.feature_columns, start=1)
        if c not in schema.categorical_columns
    ]
    for line, row in _records(text_lines):
        if len(row) != schema.column_count:
            return _width_error(path, line, len(row), schema)
        for c, feature in numeric:
            cell = row[c].strip()
            if not _parses_as_number(cell):
                return DataError(f"{path}: row {line}, feature {feature}: cannot parse {cell!r} as a number")
    return None


def frequency_encode(table: RawTable, encoding: Optional[dict] = None):
    """Replace categories by occurrence counts; numeric columns pass through.

    Columns with ``table.cells`` are categorical.  Fitting (``encoding=None``)
    counts occurrences in this table, as floats in first-seen order.  With a
    supplied encoding (test time) unseen categories map to 0.  Returns
    ``(table.values, encoding)``, codes replaced in place, where encoding maps
    column index to a {category: count} dict.
    """
    fitted = encoding is None
    if fitted:
        encoding = {}
    for c, cells in table.cells.items():
        codes = table.values[:, c].astype(np.intp)
        if fitted:
            encoding[c] = {cell: float(n) for cell, n in zip(cells, np.bincount(codes).tolist()) if n}
        table.values[:, c] = np.array([encoding[c].get(cell, 0.0) for cell in cells])[codes]
    return table.values, encoding


def min_max_normalize(matrix, lines, bounds=None):
    """Scale each column into [0, 1]; constant columns map to 0.

    ``lines`` gives each row's file line for errors.  With precomputed
    ``bounds`` (training-time minima/maxima) values are transformed and then
    clipped into [0, 1].  Returns ``(scaled, bounds)``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        row, feature = np.argwhere(~np.isfinite(matrix))[0]
        raise DataError(f"non-finite value at row {lines[row]}, feature {feature + 1}")
    fitted = bounds is None
    if fitted:
        bounds = (matrix.min(axis=0), matrix.max(axis=0))
    mins, maxs = bounds
    span = maxs - mins
    safe_span = np.where(span > 0, span, 1.0)
    scaled = matrix - mins  # the one temporary: each step below works in place
    scaled /= safe_span
    scaled[:, span <= 0] = 0.0
    if not fitted:
        np.clip(scaled, 0.0, 1.0, out=scaled)
    return scaled, (np.asarray(mins, dtype=float), np.asarray(maxs, dtype=float))


def binarize_labels(table: RawTable, schema: TableSchema) -> np.ndarray:
    """0 for normal labels, 1 for attacks, per the schema's label rule.

    Errors name the first row, by file line, whose label is in neither set.
    """
    normal = set(schema.normal_labels)
    attack = None if schema.attack_labels is None else set(schema.attack_labels)
    labels = table.cells[schema.label_column]
    classes = np.array([0 if x in normal else 1 if attack is None or x in attack else -1 for x in labels], dtype=int)
    codes = table.values[:, schema.label_column].astype(np.intp)
    out = classes[codes]
    bad = np.flatnonzero(out < 0)
    if bad.size:
        row = bad[0]
        raise DataError(f"row {table.lines[row]}: label {labels[codes[row]]!r} matches neither label set")
    return out


def _dedup(table: RawTable) -> RawTable:
    """The table without repeated rows, keeping each row's first occurrence.

    Rows repeat when every parsed number and stripped cell is equal, so
    ``1``, ``1.0`` and ``1e0`` are one value, as are ``-0`` and ``0``.
    """
    values = np.ascontiguousarray(table.values + 0.0)  # -0.0 becomes 0.0, so equal rows have equal bytes
    # a stable sort of whole rows as bytes; return_index gives each row's first occurrence
    _, first = np.unique(values.view(np.dtype((np.void, values.shape[1] * values.itemsize))), return_index=True)
    rows = np.sort(first)
    return RawTable(values=table.values[rows], cells=table.cells, lines=table.lines[rows])


def _provenance(schema: TableSchema, encoding: dict, bounds) -> str:
    import hashlib
    import json

    digest = hashlib.sha256()
    digest.update(schema.fingerprint().encode())
    digest.update(json.dumps({str(k): sorted(v.items()) for k, v in encoding.items()}, sort_keys=True).encode())
    digest.update(np.ascontiguousarray(bounds[0]).tobytes())
    digest.update(np.ascontiguousarray(bounds[1]).tobytes())
    return digest.hexdigest()


def build_dataset(table: RawTable, schema: TableSchema, fit_from: Optional[Dataset] = None) -> Dataset:
    """Full transform of a raw table into a Dataset.

    ``fit_from`` supplies a training dataset whose encoding maps and scaling
    bounds are reused (test-time path); otherwise both are fit here.  Rows
    repeated in ``table`` are dropped first when the schema asks for it.
    """
    if fit_from is None:
        encoding = bounds = None
    elif fit_from.normalization_bounds is None:
        raise DataError("fit_from dataset carries no normalization bounds")
    else:
        encoding, bounds = fit_from.encoding_map, fit_from.normalization_bounds
    if schema.drop_duplicates:
        table = _dedup(table)
    feature_cols = schema.feature_columns
    categorical = {i: table.cells[c] for i, c in enumerate(feature_cols) if c in schema.categorical_columns}
    features = RawTable(values=np.take(table.values, feature_cols, axis=1), cells=categorical, lines=table.lines)
    numeric, encoding = frequency_encode(features, encoding)
    scaled, bounds = min_max_normalize(numeric, table.lines, bounds)
    labels = binarize_labels(table, schema)
    return Dataset(
        features=scaled,
        labels=labels,
        encoding_map=encoding,
        normalization_bounds=bounds,
        provenance=_provenance(schema, encoding, bounds) if fit_from is None else fit_from.provenance,
    )


def load_dataset(path, schema: TableSchema, fit_from: Optional[Dataset] = None) -> Dataset:
    return build_dataset(load_csv(path, schema), schema, fit_from=fit_from)


def make_folds(n_rows: int, k: int, seed: int) -> FoldPlan:
    """Seeded permutation dealt round-robin into k folds (sizes differ by <= 1)."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n_rows:
        raise ValueError(f"cannot split {n_rows} rows into {k} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    assignments = np.empty(n_rows, dtype=int)
    assignments[perm] = np.arange(n_rows) % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)

