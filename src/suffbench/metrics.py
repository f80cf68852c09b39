"""Derived metrics: semantic similarity and aggregation.

Aggregation folds per-item score and similarity records into one cell
per (generator model, language, level) plus one no-explanation baseline
cell per language. Items excluded() names are left out of every level of
that model's cells (aligned denominators), and of every report number
computed here beside a cell, and surface only in n_excluded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Container, Iterable, Sequence

from .constrainer import BASELINE_MODEL, CONSTRAINT_LEVELS, SCORED_LEVELS, check_key, item_key
from .numeric import ordered_sum
from .scorer import ScoreResult


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


def mean(values: Iterable[float]) -> float:
    """Every mean in a cell or a report: the values summed in sorted order
    (ordered_sum), as float addition is not associative, so the mean is
    bit-identical however the values were ordered."""
    ordered = sorted(values)
    return ordered_sum(ordered) / len(ordered)


def mean_sufficiency(results: Sequence[ScoreResult]) -> float:
    if not results:
        raise MetricsError("mean sufficiency of zero results is undefined")
    return mean(r.sufficiency for r in results)


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
        check_key(self, CONSTRAINT_LEVELS, MetricsError)
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

    def __post_init__(self) -> None:
        check_key(self, SCORED_LEVELS, MetricsError)
        if self.n_items < 1:
            raise MetricsError(f"n_items {self.n_items} < 1")
        if self.n_excluded < 0:
            raise MetricsError(f"n_excluded {self.n_excluded} < 0")
        for name in ("accuracy", "mean_sufficiency"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise MetricsError(f"{name} {getattr(self, name)} outside [0, 1]")
        if self.mean_similarity is not None and not -1.0 <= self.mean_similarity <= 1.0:
            raise MetricsError(f"mean_similarity {self.mean_similarity} outside [-1, 1]")


# audit events that exclude an item from every cell of its model x language
EXCLUSION_EVENTS = ("unparseable", "empty_regeneration")


def excluded(audit: Iterable) -> set[tuple[str, str, str]]:
    """The item_key, (item_id, language, generator_model), of each audit
    record with an excluding event."""
    return {item_key(a) for a in audit if a.event in EXCLUSION_EVENTS}


def without_excluded(records: Iterable, exclusions: Container[tuple[str, str, str]]) -> list:
    """The records whose item_key is not in `exclusions`."""
    return [r for r in records if item_key(r) not in exclusions]


def aggregate(
    scores: Sequence[ScoreResult],
    similarities: Sequence[SimilarityRecord] = (),
    exclusions: Iterable[tuple[str, str, str]] = (),
) -> list[AggregateCell]:
    """One cell per (model, language, level) plus a per-language baseline.

    `exclusions` holds the item_key triples, (item_id, language,
    generator_model), of items left out of every cell of that model and
    language. Output order is deterministic: language, then baseline
    before generator models (alphabetical), then level ascending; input
    order never matters.
    """
    exclusions = set(exclusions)

    sim_index: dict[tuple[str, str, int], list[float]] = {}
    for record in without_excluded(similarities, exclusions):
        key = (record.generator_model, record.language, record.level)
        sim_index.setdefault(key, []).append(record.cosine)

    # the set holds each item once; no exclusion names the baseline model,
    # which check_key keeps off every audited level
    n_excluded = Counter((model, language) for _, language, model in exclusions)

    grouped: dict[tuple[str, str, int | str], list[ScoreResult]] = {}
    for score in without_excluded(scores, exclusions):
        grouped.setdefault((score.generator_model, score.language, score.level), []).append(score)

    def sort_key(group: tuple[str, str, int | str]):
        # a baseline cell is its language's one cell of the baseline model
        # (check_key), so no level 'noexp' is compared with a number
        model, language, level = group
        return language, model != BASELINE_MODEL, model, level

    cells = []
    for model, language, level in sorted(grouped, key=sort_key):
        rows = grouped[(model, language, level)]
        sims = sim_index.get((model, language, level))
        cells.append(
            AggregateCell(
                generator_model=model,
                language=language,
                level=level,
                n_items=len(rows),
                n_excluded=n_excluded[(model, language)],
                accuracy=accuracy(rows),
                mean_sufficiency=mean_sufficiency(rows),
                mean_similarity=mean(sims) if sims else None,
            )
        )
    return cells


def realized_reductions(explanations: Iterable, exclusions: Container) -> dict:
    """Mean achieved reduction, 1 - words / base words, per (generator_model,
    language, level) above 0, over the rewrites not excluded whose base has words."""
    kept = without_excluded(explanations, exclusions)
    base_words = {item_key(e): e.word_count for e in kept if e.level == 0}
    reductions: dict[tuple[str, str, int], list[float]] = {}
    for e in kept:
        if e.level and (base := base_words.get(item_key(e))):
            key = (e.generator_model, e.language, e.level)
            reductions.setdefault(key, []).append(1.0 - e.word_count / base)
    return {key: mean(values) for key, values in reductions.items()}


@dataclass(frozen=True)
class HeatmapMatrix:
    """Mean similarity per generator model (rows) and level (columns)."""

    models: tuple[str, ...]
    levels: tuple[int, ...]
    values: tuple[tuple[float | None, ...], ...]


def heatmap_matrix(cells: Iterable[AggregateCell]) -> HeatmapMatrix:
    """The mean similarity of one language's cells: a row per model with a
    mean (the baseline has none), a column per constraint level."""
    means = {(c.generator_model, c.level): c.mean_similarity for c in cells}
    models = tuple(sorted({model for (model, _), value in means.items() if value is not None}))
    values = tuple(tuple(means.get((m, level)) for level in CONSTRAINT_LEVELS) for m in models)
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
