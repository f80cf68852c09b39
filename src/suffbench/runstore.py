"""Append-only on-disk storage for one evaluation run.

A run directory holds a manifest plus one CSV table per pipeline
artifact. Each appendable table keeps one unbuffered O_APPEND handle,
opened at its first append, and every append is a single write of one
encoded row on it, so a killed process leaves at worst one torn final
line; a writable store truncates it at the table's first read, which
every append waits for. A store encodes every row it writes with one csv
writer of its own, kept for the store's life, and reads each column
through a getter resolved once per table; it decodes a row into its
record by field position, with parsers resolved once per table. TABLES
is the one spec of both. close(), or leaving a `with` block on the
store, releases the handles; a closed or read-only store refuses writes.
Appends deduplicate on the work key (item_id, language, generator_model,
level), which makes every stage idempotent under restarts. Opening a
store reads no table. A store reads each table once, at its first use,
and keeps its records with every record it appends, so a corrupt table
is reported then; rewriting aggregates.csv drops its records. A missing
or headerless table file is refused, never read as an empty table.

The run id is the store's own, and no record carries it: the store
writes it as column 0 of every row and checks that column on every row
it reads.

Stores are single-writer: callers must serialize appends, and nothing
else may edit the tables while a store is open.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .canonical import canonical_digest, canonical_json
from .constrainer import ALL_LEVELS, WORK_KEY, Explanation, check_key, parse_level, work_key
from .corpus import LABELS
from .masker import MaskReport
from .metrics import AggregateCell, SimilarityRecord
from .scorer import ScoreResult

MANIFEST_NAME = "manifest.json"

EXPLANATIONS = "explanations.csv"
MASKS = "masks.csv"
SCORES = "scores.csv"
SIMILARITY = "similarity.csv"
AGGREGATES = "aggregates.csv"
AUDIT = "audit.csv"

# A reader holds its whole table in memory before it parses a row, so csv's
# per-field cap (131072 characters by default) guards no memory here; it
# would only refuse a field the writer wrote, an explanation longer than the
# cap, and with it every later read of the table. 2**31 - 1 is accepted on
# every platform (a C long).
csv.field_size_limit(2**31 - 1)


class StoreError(RuntimeError):
    """Corrupt or inconsistent run store state."""


class ManifestMismatch(StoreError):
    """Existing store was created from a different run configuration."""


@dataclass(frozen=True)
class RunManifest:
    """Identity of a run: its id plus the fully resolved configuration.

    created_at is provenance only and excluded from the identity hash,
    so a resumed run written at a later time still matches. The store
    format is written alongside; stores of any other format are refused
    before the identity is compared.
    """

    STORE_FORMAT = 2

    run_id: str
    config: dict
    created_at: str

    @classmethod
    def new(cls, run_id: str, config: dict) -> "RunManifest":
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return cls(run_id=run_id, config=config, created_at=stamp)

    def identity(self) -> str:
        return canonical_digest({"run_id": self.run_id, "config": self.config})

    def difference(self, other: "RunManifest") -> str:
        """What sets `other`'s identity apart from this one's: the top-level
        config keys that differ, else the run id."""
        mine, theirs, missing = self.config, other.config, object()
        keys = sorted(
            key for key in mine.keys() | theirs.keys()
            if mine.get(key, missing) != theirs.get(key, missing)
        )
        if keys:
            return "config keys that differ: " + ", ".join(keys)
        return f"run id {other.run_id!r} differs"

    def to_json(self) -> str:
        return canonical_json({
            "format": self.STORE_FORMAT, "run_id": self.run_id,
            "config": self.config, "created_at": self.created_at,
        })

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"manifest is not valid JSON: {exc}") from exc
        missing = {"run_id", "config", "created_at"} - set(data)
        if missing:
            raise StoreError(f"manifest missing fields: {sorted(missing)}")
        # stores written before the format field existed are format 1
        found = data.get("format", 1)
        if found != cls.STORE_FORMAT:
            raise StoreError(
                f"run store format {found!r} is not supported (this version reads "
                f"format {cls.STORE_FORMAT}); use a new store_dir"
            )
        return cls(run_id=data["run_id"], config=data["config"], created_at=data["created_at"])


@dataclass(frozen=True)
class AuditRecord:
    """Stage event worth keeping: failures, exclusions, salvage notes.

    Unparseable generations are recorded here and nowhere else, so the
    audit row doubles as the done-marker that stops resumed runs from
    re-attempting them.
    """

    stage: str
    item_id: str
    language: str
    generator_model: str
    level: int | str
    event: str
    detail: str

    def __post_init__(self) -> None:
        check_key(self, ALL_LEVELS, ValueError)


# One spec per table: the record type it stores and the columns it
# writes, in order. run_id leads every table and is the store's own;
# every other column is the record field of the same name, except that
# scores.csv spreads option_probs over option_prob_A..D. Every table but
# aggregates.csv writes a row's work key in WORK_KEY's order.
TABLES = {
    EXPLANATIONS: (Explanation, ("run_id", *WORK_KEY, "word_count", "length_status", "text")),
    MASKS: (MaskReport, ("run_id", *WORK_KEY, "label_hits", "text_hits", "masked_text")),
    SCORES: (ScoreResult, (
        "run_id", *WORK_KEY,
        "option_prob_A", "option_prob_B", "option_prob_C", "option_prob_D",
        "sufficiency", "predicted", "correct", "scorer_model", "prompt_fingerprint",
    )),
    SIMILARITY: (SimilarityRecord, ("run_id", *WORK_KEY, "cosine")),
    AGGREGATES: (AggregateCell, (
        "run_id", "generator_model", "language", "level", "n_items",
        "n_excluded", "accuracy", "mean_sufficiency", "mean_similarity",
    )),
    AUDIT: (AuditRecord, ("run_id", "stage", *WORK_KEY, "event", "detail")),
}
COLUMNS = {name: columns for name, (_, columns) in TABLES.items()}

_OPTION_PROB = "option_prob_"


def _complete_prefix_length(data: bytes) -> int:
    """Byte length of the longest prefix ending on a row boundary.

    A newline ends a row exactly when an even number of quotes come before
    it: the writer quotes every field holding a quote or a newline and
    doubles the quotes inside it, so each quoted field adds an even count.
    Only the writer's own output is scanned.
    """
    quotes = data.count(b'"')
    end = len(data)
    while (cut := data.rfind(b"\n", 0, end)) != -1:
        quotes -= data.count(b'"', cut + 1, end)
        if quotes % 2 == 0:
            return cut + 1
        end = cut
    return 0


def _getters(record_type: type, columns: Sequence[str]) -> tuple[Callable, ...]:
    """What reads each of `columns` from a record of `record_type`: its field
    of the same name, a bool one as true/false, or an option_probs entry."""
    types = {field.name: field.type for field in fields(record_type)}

    def getter(column: str) -> Callable:
        if column.startswith(_OPTION_PROB):
            label = column[len(_OPTION_PROB):]
            return lambda record: record.option_probs[label]
        get = attrgetter(column)
        if types[column] in ("bool", bool):
            return lambda record: "true" if get(record) else "false"
        return get

    return tuple(map(getter, columns))


# the getters of each table's record columns (all but run_id), in order
_GETTERS = {
    name: _getters(record_type, columns[1:]) for name, (record_type, columns) in TABLES.items()
}


class _LineSink:
    """A csv writer's file whose write hands the line back, so writerow
    returns it: no buffer to fill and clear per row."""

    @staticmethod
    def write(line: str) -> str:
        return line


class _RowEncoder:
    """Rows encoded by one csv writer, kept for the encoder's life. Each
    store has its own, so two stores on two threads share none."""

    def __init__(self) -> None:
        self._writerow = csv.writer(
            _LineSink(), lineterminator="\n", quoting=csv.QUOTE_MINIMAL
        ).writerow

    def row(self, values: Sequence) -> bytes:
        return self._writerow(values).encode("utf-8")

    def record(self, name: str, run_id: str, record) -> bytes:
        """One row of table `name`, led by `run_id`; bools are written
        true/false, None empty."""
        return self.row([run_id, *[get(record) for get in _GETTERS[name]]])


def _encode_row(values: Sequence) -> bytes:
    """One row, encoded by a writer of its own: a header, or a test's row."""
    return _RowEncoder().row(values)


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"boolean field must be true/false, got {raw!r}")
    return raw == "true"


# the text columns that repeat across rows and tables are interned, so the
# records a store loads share one string per value
_PARSERS = {
    **dict.fromkeys((
        "item_id", "language", "generator_model", "scorer_model", "length_status",
        "stage", "event",
    ), sys.intern),
    "level": parse_level,
    "correct": _parse_bool,
    "mean_similarity": lambda raw: float(raw) if raw else None,
    **dict.fromkeys(("word_count", "label_hits", "text_hits", "n_items", "n_excluded"), int),
    **dict.fromkeys(
        ("sufficiency", "cosine", "accuracy", "mean_sufficiency")
        + tuple(_OPTION_PROB + label for label in LABELS),
        float,
    ),
}


def _decoder(name: str) -> Callable[[Sequence[str]], object]:
    """What makes the record stored in one checked row of table `name`:
    each column parsed by its parser (none keeps the text as it is), then
    the record's fields passed by position. Parsers and positions are
    resolved here, once per table; scores.csv gathers option_prob_A..D
    into option_probs."""
    record_type, columns = TABLES[name]
    parsers = tuple(_PARSERS.get(column) for column in columns)
    position = {column: i for i, column in enumerate(columns)}
    options = None
    if name == SCORES:
        options = itemgetter(*(position.pop(_OPTION_PROB + label) for label in LABELS))
        # option_probs is appended after the columns
        position["option_probs"] = len(columns)
    arguments = itemgetter(*(position[field.name] for field in fields(record_type)))

    def decode(values: Sequence[str]):
        parsed = [raw if parse is None else parse(raw) for parse, raw in zip(parsers, values)]
        if options is not None:
            parsed.append(dict(zip(LABELS, options(parsed))))
        return record_type(*arguments(parsed))

    return decode


_DECODERS = {name: _decoder(name) for name in TABLES}


def _existing(path: Path) -> Path:
    """Table file `path`, refused if missing: never taken for an empty table."""
    if not path.is_file():
        raise StoreError(f"{path.name}: table file is missing from {path.parent}")
    return path


def _replace_file(path: Path, data: bytes) -> None:
    """Write `path` whole or not at all: a durable temp file, then a rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# table -> the key of its records: the work key, led by (stage, event) in audit.csv
_KEYS = {
    **dict.fromkeys((EXPLANATIONS, MASKS, SCORES, SIMILARITY), work_key),
    AUDIT: attrgetter("stage", "event", *WORK_KEY),
    AGGREGATES: attrgetter("generator_model", "language", "level"),
}


class RunStore:
    """One run directory: manifest, append-only tables, rewrite aggregates."""

    def __init__(self, root: Path, manifest: RunManifest, writable: bool):
        self.root = Path(root)
        self.manifest = manifest
        self.run_id = manifest.run_id
        # table -> bytes of torn tail dropped at its first read
        self.salvage_report: dict[str, int] = {}
        self._records: dict[str, dict[tuple, object]] = {}
        self._encoder = _RowEncoder()
        # None once closed, and for a read-only store
        self._handles: dict[str, io.FileIO] | None = {} if writable else None

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, root: Path | str, manifest: RunManifest) -> "RunStore":
        """Write every table header, then the manifest, atomically and last:
        a directory is a store exactly when its manifest exists, so a
        create killed part way is simply run again."""
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            raise StoreError(f"store already initialized: {manifest_path}")
        root.mkdir(parents=True, exist_ok=True)
        for name, columns in COLUMNS.items():
            (root / name).write_bytes(_encode_row(columns))
        _replace_file(manifest_path, (manifest.to_json() + "\n").encode("utf-8"))
        return cls(root, manifest, writable=True)

    @classmethod
    def open_resume(cls, root: Path | str, manifest: RunManifest) -> "RunStore":
        """Open an existing store for further writes.

        The identity of `manifest` must match what the store was created
        with; the on-disk manifest (with the original created_at) wins.
        Every table file must exist; none is read here.
        """
        root = Path(root)
        existing = cls._read_manifest(root)
        if existing.identity() != manifest.identity():
            raise ManifestMismatch(
                f"store {root} belongs to run {existing.run_id!r} with a "
                f"different configuration ({existing.difference(manifest)}); "
                "refusing to mix runs"
            )
        for name in COLUMNS:
            _existing(root / name)
        return cls(root, existing, writable=True)

    @classmethod
    def open_or_create(cls, root: Path | str, manifest: RunManifest) -> "RunStore":
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            return cls.open_resume(root, manifest)
        return cls.create(root, manifest)

    @classmethod
    def load(cls, root: Path | str) -> "RunStore":
        """Read-only open for reporting: no writes, and no torn tail cut."""
        root = Path(root)
        return cls(root, cls._read_manifest(root), writable=False)

    @staticmethod
    def _read_manifest(root: Path) -> RunManifest:
        path = root / MANIFEST_NAME
        if not path.exists():
            raise StoreError(f"no run store at {root} (missing {MANIFEST_NAME})")
        return RunManifest.from_json(path.read_text(encoding="utf-8"))

    # -- rows and records ----------------------------------------------

    def _read_records(self, name: str) -> Iterator:
        """The records of the complete rows of table `name`, in file order.
        A writable store truncates an incomplete tail off the file and
        notes its bytes in salvage_report. Column 0 is checked against the
        manifest's run id: the file is input from outside the program, so
        a value that does not parse or make a valid record is a StoreError
        that names the table and the line."""
        path = _existing(self.root / name)
        data = path.read_bytes()
        keep = _complete_prefix_length(data)
        if keep < len(data) and self._handles is not None:
            os.truncate(path, keep)
            self.salvage_report[name] = len(data) - keep
        try:
            text = data[:keep].decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise StoreError(f"{name} line {line}: not UTF-8 ({exc})") from exc
        reader = csv.reader(io.StringIO(text, newline=""))
        decode = _DECODERS[name]
        try:
            header = next(reader, None)
            if header is None or tuple(header) != COLUMNS[name]:
                raise StoreError(f"{name}: unexpected header {header!r}")
            for values in reader:
                if len(values) != len(header):
                    raise StoreError(f"{name}: row width {len(values)} != {len(header)}")
                if values[0] != self.run_id:
                    raise StoreError(
                        f"{name}: row for run {values[0]!r} in store for {self.run_id!r}"
                    )
                yield decode(values)
        except (ValueError, csv.Error) as exc:
            raise StoreError(f"{name} line {reader.line_num}: {exc}") from exc

    def _table(self, name: str) -> dict[tuple, object]:
        """Table `name` as {key: record} in file order, read at first use."""
        if name not in self._records:
            if name not in _KEYS:
                raise StoreError(f"unknown table {name!r}")
            table, key_of = {}, _KEYS[name]
            for record in self._read_records(name):
                if table.setdefault(key := key_of(record), record) is not record:
                    raise StoreError(f"{name}: key {key!r} is stored twice")
            self._records[name] = table
        return self._records[name]

    def _check_writable(self) -> None:
        if self._handles is None:
            raise StoreError(f"store {self.root} is closed or read-only")

    def _append(self, name: str, record) -> bool:
        self._check_writable()
        table = self._table(name)
        key = _KEYS[name](record)
        if key in table:
            return False
        self._write(name, self._encoder.record(name, self.run_id, record))
        table[key] = record
        return True

    def _write(self, name: str, row: bytes) -> None:
        """Append `row` to table `name` with one write on the table's kept
        handle, opened at first use; after a short write, the rest follows."""
        fh = self._handles.get(name)
        if fh is None:
            fh = self._handles[name] = open(self.root / name, "ab", buffering=0)
        written = 0
        while written < len(row):
            written += fh.write(row[written:])

    def close(self) -> None:
        """Close the kept append handles; any later write raises StoreError."""
        handles, self._handles = self._handles or {}, None
        for fh in handles.values():
            fh.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appends (return False when the work key is already stored) ------

    def append_explanation(self, e: Explanation) -> bool:
        return self._append(EXPLANATIONS, e)

    def append_mask(self, m: MaskReport) -> bool:
        return self._append(MASKS, m)

    def append_score(self, s: ScoreResult) -> bool:
        return self._append(SCORES, s)

    def append_similarity(self, s: SimilarityRecord) -> bool:
        return self._append(SIMILARITY, s)

    def append_audit(self, a: AuditRecord) -> bool:
        return self._append(AUDIT, a)

    # -- loads -----------------------------------------------------------

    def load_explanations(self) -> tuple[Explanation, ...]:
        return tuple(self._table(EXPLANATIONS).values())

    def load_masks(self) -> tuple[MaskReport, ...]:
        return tuple(self._table(MASKS).values())

    def load_scores(self) -> tuple[ScoreResult, ...]:
        return tuple(self._table(SCORES).values())

    def load_similarities(self) -> tuple[SimilarityRecord, ...]:
        return tuple(self._table(SIMILARITY).values())

    def load_audit(self) -> tuple[AuditRecord, ...]:
        return tuple(self._table(AUDIT).values())

    def load_aggregates(self) -> tuple[AggregateCell, ...]:
        return tuple(self._table(AGGREGATES).values())

    # -- derived views ---------------------------------------------------

    def done_keys(self, name: str) -> frozenset[tuple]:
        return frozenset(self._table(name))

    def audit_keys(self, stage: str) -> frozenset[tuple]:
        """Work keys audited for `stage`."""
        return frozenset(key[2:] for key in self._table(AUDIT) if key[0] == stage)

    # -- aggregates (full atomic rewrite, not append) ---------------------

    def write_aggregates(self, cells: Iterable[AggregateCell]) -> None:
        self._check_writable()
        chunks = [self._encoder.row(COLUMNS[AGGREGATES])]
        chunks.extend(self._encoder.record(AGGREGATES, self.run_id, c) for c in cells)
        _replace_file(self.root / AGGREGATES, b"".join(chunks))
        self._records.pop(AGGREGATES, None)
