"""The stored tables of a fixed mock run, pinned by digest.

The run is the full bilingual fixture corpora with two mock generators.
Each table is pinned by the SHA-256 of its rows without the run_id column
(the run id depends on the store's path), as JSON. A change that is meant
to leave every stored byte as it is must leave these digests as they are,
on every Python version the package supports. A change that alters stored
numbers on purpose re-pins them and says why.

The same run's reports (every kind) are pinned by the SHA-256 of their
bytes: none of them holds a run id or a path.
"""

from __future__ import annotations

import csv
import hashlib
import json

from suffbench.cli import main
from tests.conftest import FIXTURES

GOLDEN = {
    "explanations.csv": "0e1336b385704302a799b69cd8dbf72b64a62fa6609cd69c42e96606c61ee7c9",
    "masks.csv": "384575c92aa410552ee0d12dae1e96a7c17f198dba737d3ff2d2ccf325bdb770",
    "scores.csv": "077757cc43f200cb3de0cb0f1f6ed874a01914f19ab655620fef79fbae142a6a",
    "similarity.csv": "32cd3ca235bbd63977fd1e975bf7728140b5650ca642184f31dffd248c5a065e",
    "aggregates.csv": "fca3c1f25b193744ed085869d91aa8868e6fcfdb6d1ec8a97d709ee080ee8fca",
    "audit.csv": "ab3dc83fb3d20e6e27038ea5e8dd1b8c970efa66005affb34a2ecbe7b58e0aa5",
}

REPORTS = {
    "tables.txt": "b12b10df42a82a88c230835753596f7390cf32ae54028ca562ee698d082955b6",
    "heatmap_en.csv": "647b6b3635f1bdc9ceeb9b33a60cbfed1f14d315f134391fde0d44949d6818ee",
    "heatmap_en.svg": "ba7269ff3d896950052cd629107729c4009b5fcf46bfcaa8d62dd4e17aa67c83",
    "heatmap_fa.csv": "536ad4526e57470f3fbe24d13172903fa6dd8c2932d95ffedcb14a1adc6abd4d",
    "heatmap_fa.svg": "3be631c70e0107f72f283df20dd904c1cfeaeac371ad86d1453cc12e9878113b",
    "curves_en.csv": "909fc6ac18e4867eeb541d426c1de33921b8edcc05c294689bfa827e00d8cb7b",
    "curves_fa.csv": "22a9dc3c0d81f2495bc285f6ca55567d02339fd1dbbc263f9878f89d934609f7",
}


def rows_digest(path) -> str:
    """SHA-256 of the JSON of a table's rows, header included, without column 0."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row[1:] for row in csv.reader(fh)]
    return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode("utf-8")).hexdigest()


def test_mock_run_tables_match_their_golden_digests(tmp_path):
    config = {
        "store_dir": str(tmp_path / "store"),
        "corpus": {
            "en": str(FIXTURES / "corpus_en.jsonl"),
            "fa": str(FIXTURES / "corpus_fa.jsonl"),
        },
        "generators": [
            {"base_url": "mock://41", "model_id": "gen-1"},
            {"base_url": "mock://41", "model_id": "gen-2"},
        ],
        "scorer": {"base_url": "mock://42", "model_id": "probe-1"},
        "embedder": {"base_url": "mock://43", "model_id": "embed-1"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--all"]) == 0
    digests = {name: rows_digest(tmp_path / "store" / name) for name in GOLDEN}
    assert digests == GOLDEN

    for kind in ("tables", "heatmap", "curves"):
        assert main(["report", "--store", str(tmp_path / "store"), "--kind", kind]) == 0
    reports = tmp_path / "store" / "reports"
    assert sorted(p.name for p in reports.iterdir()) == sorted(REPORTS)
    digests = {name: hashlib.sha256((reports / name).read_bytes()).hexdigest() for name in REPORTS}
    assert digests == REPORTS
