"""Golden paper artifacts: EXPERIMENTS.md pins every paper table byte for byte.

The shape tests in ``test_eval_experiments.py`` pass a 10% shift in one
Fig. 11 cell; this test does not.  It regenerates every registered
experiment at the paper's order 7 and compares each rendered table with
its ``EXPERIMENTS.md`` section.  The compile cache is pointed at an empty
directory first: its key holds no source hash, so a warm cache would hide
a compiler change.  ``fault_sweep`` is left to CI's regeneration of the
whole file (``scripts/generate_experiments_md.py``), which diffs it too.
"""

import re
from pathlib import Path

import pytest

from repro.core.cache import default_cache
from repro.eval import EXPERIMENTS, run_experiment
from repro.eval.experiments import clear_compiled_cache

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def _sections():
    """``{experiment id: rendered table}`` in file order."""
    text = EXPERIMENTS_MD.read_text()
    return dict(re.findall(r"^## (\w+)\n\n```\n(.*?)\n```$", text, re.M | re.S))


@pytest.fixture()
def cold_compile_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    default_cache(refresh=True)
    clear_compiled_cache()
    yield
    clear_compiled_cache()
    monkeypatch.undo()
    default_cache(refresh=True)


def test_sections_are_the_registry():
    assert list(_sections()) == list(EXPERIMENTS)


def test_paper_tables_regenerate_byte_for_byte(cold_compile_cache):
    sections = _sections()
    for name in EXPERIMENTS:
        if name == "fault_sweep":
            continue
        assert run_experiment(name).render() == sections.get(name), (
            f"{name}: the regenerated table differs from EXPERIMENTS.md; "
            "regenerate it and explain the shift in DESIGN.md")
