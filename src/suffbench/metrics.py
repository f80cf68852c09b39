"""Derived metrics: semantic similarity and aggregation.

Aggregation folds per-item score and similarity records into one cell
per (generator model, language, level) plus one no-explanation baseline
cell per language. Items whose base generation was unparseable are
excluded from every level of that model's cells (aligned denominators)
and surface only in n_excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Container, Iterable, Sequence

from .constrainer import CONSTRAINT_LEVELS
from .corpus import LANGUAGES
from .numeric import ordered_sum
from .scorer import BASELINE_LEVEL, BASELINE_MODEL, ScoreResult


class MetricsError(ValueError):
    """Inconsistent metric inputs."""


def norm(u: Sequence[float]) -> float:
    """Euclidean norm, its squares summed left to right (ordered_sum)."""
    return math.sqrt(ordered_sum(map(mul, u, u)))


def cosine(u: Sequence[float], v: Sequence[float], norm_u: float | None = None) -> float:
    """Cosine similarity, clamped into [-1, 1] against float drift. A NaN
    or an infinite component gives no cosine: min(1.0, nan) is 1.0, so
    clamping it would read as perfect similarity.

    `norm_u`, if given, is norm(u), for a caller that compares one vector
    with several: the value is bit-identical either way. Products are
    summed left to right (ordered_sum), so the value does not depend on
    the Python version."""
    if len(u) != len(v):
        raise MetricsError(f"vector dims differ: {len(u)} vs {len(v)}")
    if not u:
        raise MetricsError("vectors must be non-empty")
    dot = ordered_sum(map(mul, u, v))
    if norm_u is None:
        norm_u = norm(u)
    norm_v = norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        raise MetricsError("cosine undefined for zero-norm vectors")
    value = dot / (norm_u * norm_v)
    if not math.isfinite(value):
        raise MetricsError(f"cosine is {value}: a vector has a non-finite component")
    return max(-1.0, min(1.0, value))


def accuracy(results: Sequence[ScoreResult]) -> float:
    if not results:
        raise MetricsError("accuracy of zero results is undefined")
    return sum(r.correct for r in results) / len(results)


def mean_sufficiency(results: Sequence[ScoreResult]) -> float:
    if not results:
        raise MetricsError("mean sufficiency of zero results is undefined")
    # summed in sorted order: float addition is not associative, and the
    # mean must be bit-identical however the rows were ordered
    return ordered_sum(sorted(r.sufficiency for r in results)) / len(results)


@dataclass(frozen=True)
class SimilarityRecord:
    """Cosine between the embeddings of the raw base explanation and one
    raw constrained explanation of the same item."""

    item_id: str
    language: str
    generator_model: str
    level: int
    cosine: float

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise MetricsError(f"unknown language {self.language!r}")
        if self.level not in CONSTRAINT_LEVELS:
            raise MetricsError(f"similarity level {self.level!r} not in {CONSTRAINT_LEVELS}")
        if not -1.0 <= self.cosine <= 1.0:
            raise MetricsError(f"cosine {self.cosine} outside [-1, 1]")


@dataclass(frozen=True)
class AggregateCell:
    generator_model: str
    language: str
    level: int | str
    n_items: int
    n_excluded: int
    accuracy: float
    mean_sufficiency: float
    mean_similarity: float | None


def without_excluded(records: Iterable, exclusions: Container[tuple[str, str, str]]) -> list:
    """The records whose (language, generator_model, item_id) is not in `exclusions`."""
    return [r for r in records if (r.language, r.generator_model, r.item_id) not in exclusions]


def aggregate(
    scores: Sequence[ScoreResult],
    similarities: Sequence[SimilarityRecord] = (),
    exclusions: Iterable[tuple[str, str, str]] = (),
) -> list[AggregateCell]:
    """One cell per (model, language, level) plus a per-language baseline.

    `exclusions` holds (language, generator_model, item_id) triples of
    items left out of every cell of that model and language. Output
    order is deterministic: language, then baseline before generator
    models (alphabetical), then level ascending; input order never matters.
    """
    exclusions = set(exclusions)

    sim_index: dict[tuple[str, str, int], list[float]] = {}
    for record in without_excluded(similarities, exclusions):
        key = (record.generator_model, record.language, record.level)
        sim_index.setdefault(key, []).append(record.cosine)

    excluded_index: dict[tuple[str, str], set[str]] = {}
    for language, model, item_id in exclusions:
        excluded_index.setdefault((model, language), set()).add(item_id)

    grouped: dict[tuple[str, str, int | str], list[ScoreResult]] = {}
    for score in without_excluded(scores, exclusions):
        grouped.setdefault((score.generator_model, score.language, score.level), []).append(score)

    def sort_key(group: tuple[str, str, int | str]):
        model, language, level = group
        return (
            language,
            model != BASELINE_MODEL,
            model,
            -1 if level == BASELINE_LEVEL else level,
        )

    cells = []
    for model, language, level in sorted(grouped, key=sort_key):
        rows = grouped[(model, language, level)]
        sims = sim_index.get((model, language, level)) if level in CONSTRAINT_LEVELS else None
        excluded = () if model == BASELINE_MODEL else excluded_index.get((model, language), ())
        cells.append(
            AggregateCell(
                generator_model=model,
                language=language,
                level=level,
                n_items=len(rows),
                n_excluded=len(excluded),
                accuracy=accuracy(rows),
                mean_sufficiency=mean_sufficiency(rows),
                mean_similarity=ordered_sum(sorted(sims)) / len(sims) if sims else None,
            )
        )
    return cells


@dataclass(frozen=True)
class HeatmapMatrix:
    """Mean similarity per generator model (rows) and level (columns)."""

    models: tuple[str, ...]
    levels: tuple[int, ...]
    values: tuple[tuple[float | None, ...], ...]


def heatmap_matrix(similarities: Sequence[SimilarityRecord]) -> HeatmapMatrix:
    models = tuple(sorted({r.generator_model for r in similarities}))
    buckets: dict[tuple[str, int], list[float]] = {}
    for record in similarities:
        buckets.setdefault((record.generator_model, record.level), []).append(record.cosine)
    values = tuple(
        tuple(
            ordered_sum(sorted(vals)) / len(vals) if (vals := buckets.get((model, level)))
            else None
            for level in CONSTRAINT_LEVELS
        )
        for model in models
    )
    return HeatmapMatrix(models=models, levels=CONSTRAINT_LEVELS, values=values)


def render_heatmap_svg(matrix: HeatmapMatrix, title: str = "") -> str:
    """Hand-rolled SVG: one grayscale rect per cell (darker = more
    similar), labeled rows and columns, missing cells left blank."""
    cell_w, cell_h = 46, 28
    left, top = 150, 48
    width = left + cell_w * len(matrix.levels) + 16
    height = top + cell_h * max(len(matrix.models), 1) + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
    ]
    if title:
        parts.append(f'<text x="{left}" y="18" font-size="14">{title}</text>')
    for col, level in enumerate(matrix.levels):
        x = left + col * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="{top - 8}" text-anchor="middle">{level}</text>')
    for row, model in enumerate(matrix.models):
        y = top + row * cell_h
        parts.append(
            f'<text x="{left - 8}" y="{y + cell_h / 2 + 4}" text-anchor="end">{model}</text>'
        )
        for col, value in enumerate(matrix.values[row]):
            if value is None:
                continue
            clamped = max(0.0, min(1.0, value))
            shade = round(255 * (1.0 - clamped))
            x = left + col * cell_w
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w - 2}" height="{cell_h - 2}" '
                f'fill="rgb({shade},{shade},{shade})">'
                f"<title>{model} @ {matrix.levels[col]}: {value:.4f}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts)
