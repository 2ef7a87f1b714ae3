"""Every script in ``examples/`` runs to completion.

The examples drive records, indexes, frontends and engines directly, so a
change to one of those can break them while every library test still
passes. Each example's ``main()`` runs here at a reduced size:
``RunConfig`` is wrapped to cap ``num_keys`` and ``measure_ops``, and a
module-level ``NUM_KEYS`` is lowered.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro import RunConfig

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py"))

SMALL = dict(num_keys=3_000, measure_ops=300)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_config(**fields) -> RunConfig:
    return RunConfig(**{**fields, **SMALL})


def test_the_examples_are_found():
    assert {p.stem for p in EXAMPLES} >= {
        "quickstart", "redis_pipeline", "btree_catalog", "flood_defense",
        "shared_stlt"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_main_runs(path, monkeypatch, capsys):
    module = _load(path)
    if hasattr(module, "RunConfig"):
        monkeypatch.setattr(module, "RunConfig", _small_config)
    if hasattr(module, "NUM_KEYS"):
        monkeypatch.setattr(module, "NUM_KEYS", 500)
    module.main()
    assert capsys.readouterr().out.strip()
