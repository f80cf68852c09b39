"""End-to-end demo against the deterministic mock backend.

Runs the full pipeline on the bundled 10-item bilingual fixture corpus
with two mock generator models, then writes every report kind. No
network access and no API keys; the whole thing takes a few seconds.
Its last line is the command that resumes its run: `--sample` and `--seed`
enter the run id, so the command carries them.

    python3 scripts/run_mock_demo.py --out demo_out
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

from suffbench.cli import main as suffbench

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures"


def demo_config(out_dir: Path) -> dict:
    return {
        "store_dir": str(out_dir / "store"),
        "cache_dir": str(out_dir / "cache"),
        "corpus": {
            "en": str(FIXTURES / "corpus_en.jsonl"),
            "fa": str(FIXTURES / "corpus_fa.jsonl"),
        },
        "generators": [
            {"base_url": "mock://101", "model_id": "mock-gen-a"},
            {"base_url": "mock://101", "model_id": "mock-gen-b"},
        ],
        "scorer": {"base_url": "mock://102", "model_id": "mock-probe"},
        "embedder": {"base_url": "mock://103", "model_id": "mock-embed"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo_out", help="output directory")
    parser.add_argument("--sample", type=int, help="run on N sampled items instead of all 10")
    parser.add_argument("--seed", type=int, default=7, help="sampling seed for --sample")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "mock_config.json"
    config_path.write_text(json.dumps(demo_config(out_dir), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {config_path}")

    run_args = ["run", "--config", str(config_path), "--all"]
    if args.sample:
        run_args += ["--sample", str(args.sample), "--seed", str(args.seed)]
    code = suffbench(run_args)
    if code != 0:
        return code

    store = str(out_dir / "store")
    for kind in ("tables", "heatmap", "curves"):
        code = suffbench(["report", "--store", store, "--kind", kind])
        if code != 0:
            return code

    print()
    print((out_dir / "store" / "reports" / "tables.txt").read_text(encoding="utf-8"))
    print(f"resume: {shlex.join(['suffbench', *run_args])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
