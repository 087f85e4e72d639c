"""Persistent compile cache: fingerprints, hit/miss, recovery, knobs.

The cache must never change results — a hit returns exactly what a cold
compile would produce — and must never crash on a damaged entry: the
worst case is always a recompile.
"""

import dataclasses

import pytest

from repro.core import cache as cachemod
from repro.core.cache import (
    CompileCache,
    cache_enabled,
    compile_fingerprint,
    default_cache,
)
from repro.core.compiler import WavePimCompiler
from repro.eval import experiments as expmod
from repro.pim.params import CHIP_CONFIGS

CHIP = CHIP_CONFIGS["512MB"]


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Point the process-wide cache at a throwaway dir for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    default_cache(refresh=True)
    expmod.clear_compiled_cache()
    yield
    expmod.clear_compiled_cache()
    # forget the singleton so the next consumer re-reads the (restored) env
    cachemod._DEFAULT = None


class TestFingerprint:
    def test_deterministic(self):
        a = compile_fingerprint("acoustic", 2, CHIP, "riemann", 3)
        b = compile_fingerprint("acoustic", 2, CHIP, "riemann", 3)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"physics": "elastic"},
            {"level": 3},
            {"flux": "central"},
            {"order": 4},
        ],
    )
    def test_changes_on_each_input(self, kwargs):
        base = dict(physics="acoustic", level=2, flux="riemann", order=3)
        ref = compile_fingerprint(base["physics"], base["level"], CHIP,
                                  base["flux"], base["order"])
        base.update(kwargs)
        other = compile_fingerprint(base["physics"], base["level"], CHIP,
                                    base["flux"], base["order"])
        assert ref != other

    def test_changes_on_chip_params(self):
        ref = compile_fingerprint("acoustic", 2, CHIP, "riemann", 3)
        assert ref != compile_fingerprint(
            "acoustic", 2, CHIP_CONFIGS["2GB"], "riemann", 3
        )
        assert ref != compile_fingerprint(
            "acoustic", 2, CHIP.with_interconnect("bus"), "riemann", 3
        )
        # a single nested device knob must be enough to invalidate
        tweaked = dataclasses.replace(
            CHIP, device=dataclasses.replace(CHIP.device, e_nor_j=999.0)
        )
        assert ref != compile_fingerprint("acoustic", 2, tweaked, "riemann", 3)

    def test_changes_on_schema_version(self, monkeypatch):
        ref = compile_fingerprint("acoustic", 2, CHIP, "riemann", 3)
        monkeypatch.setattr(cachemod, "SCHEMA_VERSION", cachemod.SCHEMA_VERSION + 1)
        assert ref != compile_fingerprint("acoustic", 2, CHIP, "riemann", 3)


class TestCompileCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CompileCache(tmp_path, enabled=True)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_disabled_never_touches_disk(self, tmp_path):
        cache = CompileCache(tmp_path, enabled=False)
        cache.put("k", {"x": 1})
        assert cache.get("k") is None
        assert cache.entries() == []

    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CompileCache(tmp_path, enabled=True)
        cache.put("k", {"x": 1})
        path = cache.entries()[0]
        path.write_bytes(b"not a pickle at all")
        assert cache.get("k") is None
        assert cache.stats.errors == 1
        assert not path.exists()
        # and a fresh put recovers
        cache.put("k", {"x": 2})
        assert cache.get("k") == {"x": 2}

    def test_clear_and_disk_stats(self, tmp_path):
        cache = CompileCache(tmp_path, enabled=True)
        cache.put("a", 1)
        cache.put("b", 2)
        stats = cache.disk_stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.entries() == []


class TestEnvKnobs:
    def test_no_cache_env_disables(self, monkeypatch):
        assert cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not cache_enabled()
        assert not default_cache(refresh=True).enabled

    def test_cache_dir_env_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = default_cache(refresh=True)
        assert cache.root == tmp_path / "elsewhere"


class TestCompilerIntegration:
    def test_second_compile_hits_and_matches(self, tmp_path):
        cache = CompileCache(tmp_path, enabled=True)
        compiler = WavePimCompiler(order=2)
        cold = compiler.compile("acoustic", 1, CHIP, "riemann", cache=cache)
        assert cache.stats.stores == 1
        warm = WavePimCompiler(order=2).compile("acoustic", 1, CHIP, "riemann", cache=cache)
        assert cache.stats.hits == 1
        assert warm.stage_times == cold.stage_times
        assert warm.stage_energy_per_element == cold.stage_energy_per_element
        assert warm.op_counts_per_element == cold.op_counts_per_element
        assert warm.dram_bytes_per_step == cold.dram_bytes_per_step
        assert warm.plan == cold.plan

    def test_stale_path_knobs_do_not_reach_the_cache(self, monkeypatch,
                                                     tmp_path):
        """Compile results depend only on the fingerprinted inputs.

        ``REPRO_SCHED=on`` used to make the compiler schedule its costing
        pipelines, which changed ``stage_times`` while
        ``compile_fingerprint`` ignored the knob, so an entry written under
        it was served to default runs (and the other way round).  The
        compiler now has one path: a compile under the old knobs, and a
        later hit on its entry with them unset, both match a clean
        compile.
        """
        def compile_once(cache):
            return WavePimCompiler(order=3).compile("acoustic", 2, CHIP,
                                                    cache=cache)

        clean = compile_once(None)
        for env in ({"REPRO_SCHED": "on"},
                    {"REPRO_SCHED": "on", "REPRO_PLAN": "off"}):
            cache = CompileCache(tmp_path / "-".join(env), enabled=True)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            written = compile_once(cache)
            for key in env:
                monkeypatch.delenv(key)
            served = compile_once(cache)
            assert cache.stats.hits == 1
            assert written.stage_times == clean.stage_times, env
            assert served.stage_times == clean.stage_times, env

    def test_distinct_cells_do_not_alias(self, tmp_path):
        cache = CompileCache(tmp_path, enabled=True)
        compiler = WavePimCompiler(order=2)
        a = compiler.compile("acoustic", 1, CHIP, "riemann", cache=cache)
        b = compiler.compile("acoustic", 1, CHIP, "central", cache=cache)
        assert len(cache.entries()) == 2
        assert a.flux_kind != b.flux_kind


class TestParallelFanout:
    CELLS = [
        ("acoustic", 1, "512MB", "riemann", 2, "htree"),
        ("acoustic", 1, "512MB", "central", 2, "htree"),
    ]

    def test_parallel_equals_serial(self, monkeypatch):
        # force the pool path (no disk hits to short-circuit it)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        default_cache(refresh=True)
        n = expmod.warm_compile_grid(order=2, jobs=2, cells=list(self.CELLS))
        assert n == len(self.CELLS)
        parallel = {c: expmod._COMPILED[c] for c in self.CELLS}

        expmod.clear_compiled_cache()
        for cell in self.CELLS:
            expmod._compiled(*cell)
        for cell in self.CELLS:
            p, s = parallel[cell], expmod._COMPILED[cell]
            assert p.stage_times == s.stage_times
            assert p.stage_energy_per_element == s.stage_energy_per_element
            assert p.op_counts_per_element == s.op_counts_per_element
            assert p.dram_bytes_per_step == s.dram_bytes_per_step
            assert p.plan == s.plan

    def test_warm_grid_skips_disk_hits(self):
        cells = list(self.CELLS)
        assert expmod.warm_compile_grid(order=2, jobs=1, cells=cells) == 2
        expmod.clear_compiled_cache()
        # everything is on disk now: nothing left for the pool
        assert expmod.warm_compile_grid(order=2, jobs=2, cells=cells) == 0
        assert set(cells) <= set(expmod._COMPILED)

    def test_resolve_jobs(self, monkeypatch):
        assert expmod._resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert expmod._resolve_jobs() == 5
        monkeypatch.delenv("REPRO_JOBS")
        assert expmod._resolve_jobs() == 1
        with pytest.raises(ValueError):
            expmod._resolve_jobs(0)


class TestCli:
    def test_cache_stats_and_clear(self, capsys):
        from repro.__main__ import main

        cache = default_cache()
        cache.put("deadbeef", {"x": 1})
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert main(["cache", "clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert cache.entries() == []

    def test_no_cache_flag_bypasses_disk(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig13", "--order", "2", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "disabled" in err
        assert default_cache().entries() == []

    def test_run_reports_cache_status(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig13", "--order", "2"]) == 0
        err = capsys.readouterr().err
        assert "miss" in err
        expmod.clear_compiled_cache()
        assert main(["run", "fig13", "--order", "2"]) == 0
        err = capsys.readouterr().err
        assert "1 hit" in err
