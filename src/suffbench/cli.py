"""Command-line entry points.

    suffbench run --config cfg.json (--all | --stage NAME ...) [options]
    suffbench report --store DIR --kind (tables | heatmap | curves)
    suffbench validate-config cfg.json

Exit codes: 0 success, 2 configuration problem, 3 stage failure,
4 store/config identity mismatch.

A run's Gateway opens its HTTP session at its first HTTP request, so a
mock-only run, a dry run, a report or a config check loads no HTTP code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from contextlib import closing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .constrainer import BASELINE_LEVEL, BASELINE_MODEL, CONSTRAINT_LEVELS
from .corpus import LANGUAGES, Corpus, CorpusError, load_corpus, subset
from .canonical import canonical_digest
from .gateway import Gateway, ModelEndpoint
from .metrics import excluded, heatmap_matrix, realized_reductions, render_heatmap_svg
from .pipeline import STAGES, PipelineError, RunContext, StageFailure, run
from .prompts import DEFAULT_TEMPLATE_ID, PromptError, load_template_set
from .runstore import ManifestMismatch, RunManifest, RunStore, StoreError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_MISMATCH = 4

REPORT_KINDS = ("tables", "heatmap", "curves")

_ENDPOINT_KEYS = {f.name for f in fields(ModelEndpoint)}
_TOP_KEYS = {
    "store_dir", "cache_dir", "corpus", "generators", "scorer", "embedder",
    "template_id", "levels", "run_id", "temperature", "max_tokens", "workers",
}
_REQUIRED_KEYS = {"store_dir", "corpus", "generators", "scorer", "embedder"}


class ConfigError(ValueError):
    """Unusable run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one run.

    The experiment identity (what gets hashed into the run id and
    checked on resume) covers everything that changes results; purely
    operational knobs (store_dir, cache_dir, workers) stay outside it.
    """

    store_dir: str
    corpus: dict[str, str]
    generators: tuple[ModelEndpoint, ...]
    scorer: ModelEndpoint
    embedder: ModelEndpoint
    template_id: str
    levels: tuple[int, ...]
    run_id: str
    cache_dir: str | None
    temperature: float
    max_tokens: int
    workers: int
    sample: int | None
    seed: int | None

    def experiment_config(self) -> dict:
        return {
            "corpus": dict(sorted(self.corpus.items())),
            "generators": [asdict(e) for e in self.generators],
            "scorer": asdict(self.scorer),
            "embedder": asdict(self.embedder),
            "template_id": self.template_id,
            "levels": list(self.levels),
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "sample": self.sample,
            "seed": self.seed,
        }

    def manifest(self) -> RunManifest:
        return RunManifest.new(self.run_id, self.experiment_config())


def _parse_endpoint(spec, where: str) -> ModelEndpoint:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - _ENDPOINT_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    try:
        endpoint = ModelEndpoint(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # the Gateway reads the key at each request; a missing one is a config
    # error now, not a failed stage after earlier stages spent their requests
    if endpoint.api_key_ref and not os.environ.get(endpoint.api_key_ref):
        raise ConfigError(
            f"{where}: api_key_ref names env var {endpoint.api_key_ref!r}, which is not set"
        )
    return endpoint


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def load_config(
    path: str | Path, *, sample: int | None = None, seed: int | None = None
) -> RunConfig:
    """Parse and validate a run configuration file.

    Unknown keys are rejected rather than ignored, so a typo cannot
    silently fall back to a default. sample/seed come from the command
    line only; they subset each corpus and enter the run identity.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(_REQUIRED_KEYS - set(raw))
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")

    corpus = raw["corpus"]
    _require(isinstance(corpus, dict) and corpus, "corpus must map language to a file path")
    for language, corpus_path in corpus.items():
        _require(language in LANGUAGES, f"corpus language {language!r} not in {LANGUAGES}")
        _require(
            isinstance(corpus_path, str) and bool(corpus_path),
            f"corpus[{language!r}] must be a file path",
        )

    generators_raw = raw["generators"]
    _require(
        isinstance(generators_raw, list) and bool(generators_raw),
        "generators must be a non-empty list",
    )
    generators = tuple(
        _parse_endpoint(spec, f"generators[{i}]") for i, spec in enumerate(generators_raw)
    )
    model_ids = [e.model_id for e in generators]
    _require(len(set(model_ids)) == len(model_ids), "generator model_ids must be unique")
    _require(
        BASELINE_MODEL not in model_ids,
        f"generator model_id {BASELINE_MODEL!r} is reserved for the no-explanation baseline",
    )
    scorer = _parse_endpoint(raw["scorer"], "scorer")
    embedder = _parse_endpoint(raw["embedder"], "embedder")

    levels = raw.get("levels", list(CONSTRAINT_LEVELS))
    _require(
        isinstance(levels, list) and levels and all(isinstance(v, int) for v in levels),
        "levels must be a non-empty list of integers",
    )
    _require(
        set(levels) <= set(CONSTRAINT_LEVELS) and len(set(levels)) == len(levels),
        f"levels must be distinct values from {list(CONSTRAINT_LEVELS)}",
    )

    template_id = raw.get("template_id", DEFAULT_TEMPLATE_ID)
    _require(
        isinstance(template_id, str) and bool(template_id),
        "template_id must be a non-empty string",
    )
    store_dir = raw["store_dir"]
    _require(isinstance(store_dir, str) and bool(store_dir), "store_dir must be a path")
    cache_dir = raw.get("cache_dir")
    _require(
        cache_dir is None or (isinstance(cache_dir, str) and bool(cache_dir)),
        "cache_dir must be a path or null",
    )

    temperature = raw.get("temperature", 0.0)
    # json reads Infinity and NaN, which no request body can carry
    _require(
        isinstance(temperature, (int, float)) and not isinstance(temperature, bool)
        and 0.0 <= temperature <= sys.float_info.max,
        "temperature must be a finite non-negative number",
    )
    max_tokens = raw.get("max_tokens", 512)
    _require(
        isinstance(max_tokens, int) and not isinstance(max_tokens, bool) and max_tokens >= 1,
        "max_tokens must be a positive integer",
    )
    workers = raw.get("workers", 4)
    _require(
        isinstance(workers, int) and not isinstance(workers, bool) and workers >= 1,
        "workers must be a positive integer",
    )

    if sample is not None:
        _require(sample >= 1, "--sample must be >= 1")
        _require(seed is not None, "--sample requires --seed")
    elif seed is not None:
        raise ConfigError("--seed requires --sample")

    run_id = raw.get("run_id")
    _require(
        run_id is None or (isinstance(run_id, str) and bool(run_id)),
        "run_id must be a non-empty string or null",
    )
    config = RunConfig(
        store_dir=store_dir,
        corpus=dict(corpus),
        generators=generators,
        scorer=scorer,
        embedder=embedder,
        template_id=template_id,
        levels=tuple(sorted(levels)),
        run_id=run_id or "",
        cache_dir=cache_dir,
        temperature=float(temperature),
        max_tokens=max_tokens,
        workers=workers,
        sample=sample,
        seed=seed,
    )
    if run_id is None:
        config = replace(config, run_id=f"run-{canonical_digest(config.experiment_config())[:12]}")
    return config


def load_corpora(config: RunConfig) -> dict[str, Corpus]:
    corpora = {}
    for language, corpus_path in sorted(config.corpus.items()):
        corpus = load_corpus(corpus_path, language)
        if len(corpus) == 0:
            raise ConfigError(f"corpus[{language!r}] at {corpus_path} is empty")
        if config.sample is not None:
            corpus = subset(corpus, config.sample, config.seed)
        corpora[language] = corpus
    return corpora


def build_context(config: RunConfig, store: RunStore, gateway: Gateway | None = None) -> RunContext:
    corpora = load_corpora(config)
    templates = {
        language: load_template_set(config.template_id, language) for language in corpora
    }
    return RunContext(
        store=store,
        gateway=gateway or Gateway(cache_dir=config.cache_dir),
        corpora=corpora,
        generators=config.generators,
        scorer=config.scorer,
        embedder=config.embedder,
        templates=templates,
        levels=config.levels,
        temperature=config.temperature,
        max_tokens=config.max_tokens,
        workers=config.workers,
    )


# -- report writers ----------------------------------------------------------


def _ordered_languages(rows) -> list[str]:
    return sorted({r.language for r in rows})


def _format_float(value, places=4) -> str:
    return "" if value is None else f"{value:.{places}f}"


def _cells(store: RunStore):
    """The store's aggregate cells, which every report reads; none is an error."""
    cells = store.load_aggregates()
    if not cells:
        raise StoreError("no aggregate rows; run the aggregate stage first")
    return cells


def write_tables(store: RunStore, out_dir: Path) -> list[Path]:
    cells = _cells(store)
    header = (
        "language", "model", "level", "n_items", "n_excluded",
        "accuracy", "sufficiency", "similarity",
    )
    rows = [header] + [
        (
            c.language, c.generator_model, str(c.level), str(c.n_items),
            str(c.n_excluded), _format_float(c.accuracy),
            _format_float(c.mean_sufficiency), _format_float(c.mean_similarity) or "-",
        )
        for c in cells
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip()
             for row in rows]
    out = out_dir / "tables.txt"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [out]


def write_heatmaps(store: RunStore, out_dir: Path) -> list[Path]:
    """Per-language mean similarity by model and level: the cells' own
    means, for each language with a cell that has one."""
    cells = _cells(store)
    written = []
    for language in _ordered_languages(c for c in cells if c.mean_similarity is not None):
        matrix = heatmap_matrix(c for c in cells if c.language == language)
        svg_path = out_dir / f"heatmap_{language}.svg"
        svg_path.write_text(
            render_heatmap_svg(matrix, title=f"mean base/constrained similarity ({language})"),
            encoding="utf-8",
        )
        csv_path = out_dir / f"heatmap_{language}.csv"
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["model"] + [str(v) for v in matrix.levels])
        for model, row in zip(matrix.models, matrix.values):
            writer.writerow([model] + [_format_float(v, 6) for v in row])
        csv_path.write_text(sink.getvalue(), encoding="utf-8")
        written += [svg_path, csv_path]
    return written


def write_curves(store: RunStore, out_dir: Path) -> list[Path]:
    """Per-language accuracy/sufficiency at each enforced level, with the
    achieved word-count reduction alongside the nominal one. The achieved
    reduction leaves out the items the cells leave out (metrics.excluded)."""
    cells = _cells(store)
    realized = realized_reductions(store.load_explanations(), excluded(store.load_audit()))
    written = []
    for language in _ordered_languages(cells):
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow([
            "model", "level", "conciseness", "n_items", "accuracy",
            "mean_sufficiency", "mean_realized_reduction",
        ])
        for c in cells:
            if c.language != language:
                continue
            if c.level == BASELINE_LEVEL:
                nominal, reduction = "", ""
            elif c.level == 0:
                nominal, reduction = "0.0000", "0.0000"
            else:
                nominal = _format_float(c.level / 100)
                reduction = _format_float(realized.get((c.generator_model, language, c.level)))
            writer.writerow([
                c.generator_model, c.level, nominal, c.n_items,
                _format_float(c.accuracy), _format_float(c.mean_sufficiency), reduction,
            ])
        path = out_dir / f"curves_{language}.csv"
        path.write_text(sink.getvalue(), encoding="utf-8")
        written.append(path)
    return written


# -- commands ------------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_config(args.config, sample=args.sample, seed=args.seed)
    manifest = config.manifest()
    with RunStore.open_or_create(config.store_dir, manifest) as store:
        ctx = build_context(config, store)
        stage_names = list(STAGES) if args.all else args.stage
        try:
            with closing(ctx.gateway):
                reports = run(ctx, stage_names, dry_run=args.dry_run)
        finally:
            for name, dropped in store.salvage_report.items():
                print(f"salvaged {name}: dropped {dropped} bytes of torn tail")
    prefix = "planned" if args.dry_run else "done"
    for report in reports:
        print(f"{prefix} {report.line()}")
    print(f"run {store.run_id} at {store.root}")
    return EXIT_OK


def cmd_report(args) -> int:
    store = RunStore.load(args.store)
    out_dir = Path(args.store) / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    writers = {"tables": write_tables, "heatmap": write_heatmaps, "curves": write_curves}
    for path in writers[args.kind](store, out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate_config(args) -> int:
    config = load_config(args.config)
    load_corpora(config)
    for language in sorted(config.corpus):
        load_template_set(config.template_id, language)
    print(f"config OK: run id {config.run_id}, store {config.store_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffbench",
        description="Measure how short an explanation can get while still "
        "justifying the right answer to a fixed probe model.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute pipeline stages")
    run_parser.add_argument("--config", required=True, help="run configuration JSON")
    which = run_parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every stage in order")
    which.add_argument(
        "--stage", action="append", choices=STAGES, metavar="NAME",
        help=f"run one stage (repeatable); dependencies run first. One of {', '.join(STAGES)}",
    )
    run_parser.add_argument("--sample", type=int, help="evaluate only N sampled items")
    run_parser.add_argument("--seed", type=int, help="sampling seed (required with --sample)")
    run_parser.add_argument(
        "--dry-run", action="store_true",
        help="print planned work for the store's current state; no model calls",
    )
    run_parser.set_defaults(func=cmd_run)

    report_parser = commands.add_parser("report", help="write report files from a finished store")
    report_parser.add_argument("--store", required=True, help="run store directory")
    report_parser.add_argument("--kind", required=True, choices=REPORT_KINDS)
    report_parser.set_defaults(func=cmd_report)

    validate_parser = commands.add_parser(
        "validate-config", help="check a config file without running anything"
    )
    validate_parser.add_argument("config", help="run configuration JSON")
    validate_parser.set_defaults(func=cmd_validate_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ManifestMismatch as exc:
        # before StoreError: a mismatch is its own exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (StageFailure, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (ConfigError, CorpusError, PromptError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
