"""Benchmark-suite fixtures: artifact output directory and helpers.

The pytest-benchmark files (the store-reuse and dynamic-tuning benches)
write their text artifact to ``benchmarks/out/<name>.txt`` so a benchmark
run leaves a diffable record.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def write_artifact(artifact_dir):
    def _write(name: str, content: str) -> Path:
        path = artifact_dir / f"{name}.txt"
        path.write_text(content + "\n")
        return path

    return _write
