"""Multi-chip sharding: partition/halo correctness, bit-identity, scaling.

The correctness chain the tentpole rests on:

1. the partition covers the mesh and its halos/exchanges are exactly the
   cross-shard face closure (PL005 audit, also exercised on broken
   shardings);
2. 1-shard sharded execution is bit-identical to plain plan replay
   (same clocks, same block images);
3. N-shard execution is bit-identical to single-chip execution across a
   six-configuration sweep of the kernel families (analytic makespans
   via digests of the *full* block state, functional via read_state);
4. the capacity-axis step workload records >= 1.5x modeled-makespan
   speedup at 4 shards with the exchange overlap *measured* from
   hardware counters;
5. the r=6 mesh the single-chip mapper rejects is held by the
   partitioner;
6. batching is sharding in time: the batched baseline takes its batch
   count from ``shards_needed``, replays every face, and its batches'
   data path — a shard's — matches numpy dG on the proxy chip.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.halo import audit_sharding
from repro.core.kernels.acoustic import (
    AcousticFourBlockKernels,
    AcousticOneBlockKernels,
)
from repro.core.kernels.elastic import ElasticFourBlockKernels
from repro.core.kernels.maxwell import MaxwellOneBlockKernels
from repro.core.mapper import ElementMapper, ShardMapper
from repro.dg import (
    AcousticMaterial,
    AcousticOperator,
    HexMesh,
    ReferenceElement,
    cfl_timestep,
)
from repro.dg.materials import ElasticMaterial
from repro.dg.maxwell import ElectromagneticMaterial
from repro.dg.timestepping import LSRK45
from repro.pim.chip import PimChip
from repro.pim.executor import ChipExecutor
from repro.pim.isa import Opcode
from repro.pim.multichip import (
    InterChipLink,
    ShardedExecutor,
    Sharding,
    partition_mesh,
    shards_needed,
    single_chip_batched_makespan,
)
from repro.pim.params import CHIP_CONFIGS, ChipConfig

CHIP = CHIP_CONFIGS["512MB"]
DT = 1e-4


def _factory(physics, flux, mesh, element):
    """(kernel_factory, g, n_vars) for one sweep configuration."""
    if physics == "acoustic1":
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        return (lambda m: AcousticOneBlockKernels(mesh, element, mat, m, flux)), 1
    if physics == "acoustic4":
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        return (lambda m: AcousticFourBlockKernels(mesh, element, mat, m, flux)), 4
    if physics == "elastic":
        mat = ElasticMaterial.homogeneous(mesh.n_elements)
        return (lambda m: ElasticFourBlockKernels(mesh, element, mat, m, flux)), 4
    mat = ElectromagneticMaterial.homogeneous(mesh.n_elements)
    return (lambda m: MaxwellOneBlockKernels(mesh, element, mat, m,
                                             flux_kind=flux, alpha=1.0)), 1


def _single_chip_run(mesh, element, factory, g, state, n_steps=1):
    """Plain plan-replay reference: makespan + per-element block digests."""
    mapper = ElementMapper(mesh.m, CHIP, g)
    kern = factory(mapper)
    chip = PimChip(CHIP)
    ex = ChipExecutor(chip)
    ex.run(kern.setup() + kern.load_state(state), functional=True)
    plan = ex.lower(kern.time_step(DT))
    for _ in range(n_steps):
        ex.run(plan, functional=True)
    digests = {}
    for e in mapper.elements:
        h = hashlib.sha256()
        for part in range(g):
            h.update(chip.block(mapper.block_of(e, part)).data.tobytes())
        digests[int(e)] = h.hexdigest()
    return ex.now(), digests, kern.read_state(chip)


def _chip(n_blocks, blocks_per_tile=16):
    """A chip of ``n_blocks`` one-megabit blocks (the proxy chip's size)."""
    block_bytes = 1024 * 1024 // 8
    return ChipConfig(name=f"{n_blocks}blk",
                      capacity_bytes=n_blocks * block_bytes,
                      blocks_per_tile=blocks_per_tile)


def _flux_fetches(instructions):
    return sum(1 for inst in instructions
               if inst.op is Opcode.TRANSFER and inst.tag.startswith("flux:fetch"))


def _replayed_fetches(call):
    """``call()``'s result and the flux-fetch TRANSFERs of every stream
    it ran (plans count their instructions once per replay)."""
    real = ChipExecutor.run
    seen = []

    def spy(self, instructions, *args, **kwargs):
        seen.append(_flux_fetches(
            getattr(instructions, "instructions", instructions)))
        return real(self, instructions, *args, **kwargs)

    with mock.patch.object(ChipExecutor, "run", spy):
        out = call()
    return out, sum(seen)


def _state(mesh, element, n_vars, seed=0):
    rng = np.random.default_rng(seed)
    return (0.1 * rng.standard_normal(
        (n_vars, mesh.n_elements, element.n_nodes))).astype(np.float32)


class TestPartition:
    def test_partition_covers_mesh(self):
        mesh = HexMesh.from_refinement_level(2)
        sharding = partition_mesh(mesh, 4)
        owned_all = np.sort(np.concatenate(sharding.owned))
        assert np.array_equal(owned_all, np.arange(mesh.n_elements))
        for s in range(4):
            assert np.array_equal(sharding.halo[s],
                                  mesh.halo_of(sharding.owned[s]))
            # owner map is consistent with the owned sets
            assert np.all(sharding.owner[sharding.owned[s]] == s)

    def test_exchanges_partition_each_halo(self):
        mesh = HexMesh.from_refinement_level(2)
        sharding = partition_mesh(mesh, 4)
        for s in range(4):
            inbound = [e for (src, dst), e in sharding.exchanges.items()
                       if dst == s]
            got = np.sort(np.concatenate(inbound))
            assert np.array_equal(got, sharding.halo[s])

    def test_partition_rejects_bad_order(self):
        mesh = HexMesh.from_refinement_level(1)
        with pytest.raises(ValueError):
            mesh.partition_elements(2, order=np.zeros(8, dtype=np.int64))
        with pytest.raises(ValueError):
            mesh.partition_elements(0)

    def test_halo_of_is_face_closure(self):
        mesh = HexMesh.from_refinement_level(2)
        owned = mesh.slice_elements(0)  # one y-slice
        halo = mesh.halo_of(owned)
        # periodic mesh: the neighboring slices on both sides
        expect = np.sort(np.concatenate(
            [mesh.slice_elements(1), mesh.slice_elements(3)]))
        assert np.array_equal(halo, expect)

    def test_shard_mapper_owned_halo_disjoint(self):
        mesh = HexMesh.from_refinement_level(1)
        sharding = partition_mesh(mesh, 2)
        m = ShardMapper(mesh.m, CHIP, 1, owned=sharding.owned[0],
                        halo=sharding.halo[0], shard_id=0)
        assert m.n_owned + m.n_halo == m.n_elements
        assert all(m.is_owned(e) for e in sharding.owned[0])
        assert not any(m.is_owned(e) for e in sharding.halo[0])
        with pytest.raises(ValueError):
            ShardMapper(mesh.m, CHIP, 1, owned=sharding.owned[0],
                        halo=sharding.owned[0])


class TestHaloAudit:
    def test_clean_partitions_audit_clean(self):
        for level, n in ((1, 2), (2, 4), (2, 8)):
            mesh = HexMesh.from_refinement_level(level)
            assert audit_sharding(mesh, partition_mesh(mesh, n)) == []

    def test_catches_lost_halo_and_broken_exchange(self):
        mesh = HexMesh.from_refinement_level(2)
        sh = partition_mesh(mesh, 4)
        # drop a halo element of shard 0 and truncate one exchange set
        exchanges = dict(sh.exchanges)
        key = sorted(exchanges)[0]
        exchanges[key] = exchanges[key][:-1]
        broken = Sharding(sh.n_shards, sh.owned,
                          (sh.halo[0][1:],) + sh.halo[1:], sh.owner,
                          exchanges)
        findings = audit_sharding(mesh, broken)
        assert findings and all(f.code == "PL005" for f in findings)
        assert any("lost halo rows" in f.message for f in findings)
        assert any("no exchange delivers" in f.message for f in findings)

    def test_catches_double_ownership(self):
        mesh = HexMesh.from_refinement_level(1)
        sh = partition_mesh(mesh, 2)
        dup = np.concatenate([sh.owned[0], sh.owned[1][:1]])
        broken = Sharding(2, (dup, sh.owned[1]), sh.halo, sh.owner,
                          sh.exchanges)
        assert any("multiple shards" in f.message
                   for f in audit_sharding(mesh, broken))

    def test_sharded_executor_rejects_broken_sharding(self):
        mesh = HexMesh.from_refinement_level(1)
        sh = partition_mesh(mesh, 2)
        broken = Sharding(2, sh.owned, (sh.halo[0][1:],) + sh.halo[1:],
                          sh.owner, sh.exchanges)
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        elem = ReferenceElement(1)

        def factory(m):
            return AcousticOneBlockKernels(mesh, elem, mat, m, "riemann")

        with pytest.raises(ValueError, match="PL005"):
            ShardedExecutor(mesh, CHIP, factory, sharding=broken)


class TestBitIdentity:
    def test_one_shard_bit_identical_to_plain_replay(self):
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(2)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        state = _state(mesh, elem, 4, seed=7)
        makespan, digests, ref_state = _single_chip_run(
            mesh, elem, factory, g, state, n_steps=2)

        sx = ShardedExecutor(mesh, CHIP, factory, n_shards=1)
        sx.setup(state)
        res = sx.run_steps(DT, n_steps=2)
        assert res.makespan_s == makespan          # clocks, bit-exact
        assert sx.state_digests() == digests       # full block images
        assert np.array_equal(sx.read_state(), ref_state)
        assert res.n_exchanges == 0 and res.exchange_bytes == 0

    # the six-configuration sweep: every kernel family x flux kind the
    # paper benchmarks exercise, each run N-shard vs single chip.
    SWEEP = [
        ("acoustic1", "riemann", 2, 4, 4),
        ("acoustic1", "central", 1, 2, 4),
        ("acoustic4", "riemann", 1, 2, 4),
        ("elastic", "central", 1, 2, 9),
        ("elastic", "riemann", 1, 2, 9),
        ("maxwell", "upwind", 1, 2, 6),
    ]

    @pytest.mark.parametrize("physics,flux,level,n_shards,n_vars", SWEEP)
    def test_n_shard_bit_identical_sweep(self, physics, flux, level,
                                         n_shards, n_vars):
        mesh = HexMesh.from_refinement_level(level)
        elem = ReferenceElement(1)
        factory, g = _factory(physics, flux, mesh, elem)
        state = _state(mesh, elem, n_vars, seed=3)
        _, digests, ref_state = _single_chip_run(mesh, elem, factory, g, state)

        sx = ShardedExecutor(mesh, CHIP, factory, n_shards=n_shards,
                             blocks_per_element=g)
        sx.setup(state)
        sx.run_steps(DT, n_steps=1)
        # full block images (vars + scratch + aux) of every owned element
        assert sx.state_digests() == digests
        # functional path: the assembled global state
        assert np.array_equal(sx.read_state(), ref_state)

    def test_split_run_steps_match_one_call(self):
        """Stepping in three calls equals stepping in one: the exchange
        after a call's last stage is carried into the next call, not
        dropped (which used to leave the next call on stale ghosts)."""
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(2)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        mat = AcousticMaterial.homogeneous(mesh.n_elements)
        dt = cfl_timestep(mesh.h, mat.max_speed, 2, cfl=0.3)
        state = _state(mesh, elem, 4, seed=2)

        runs = []
        for calls, steps in ((3, 1), (1, 3)):
            sx = ShardedExecutor(mesh, CHIP, factory, n_shards=2)
            sx.setup(state)
            results = [sx.run_steps(dt, n_steps=steps) for _ in range(calls)]
            runs.append((sum(r.n_exchanges for r in results),
                         [sh.executor.now() for sh in sx.shards],
                         sx.state_digests(), sx.read_state()))
        (n_split, clocks_split, dig_split, got), (n_one, clocks_one,
                                                  dig_one, _) = runs
        assert n_split == n_one == (3 * LSRK45.n_stages - 1) * len(
            partition_mesh(mesh, 2).exchanges)
        assert clocks_split == clocks_one
        assert dig_split == dig_one

        ref = state.astype(np.float64)
        aux = np.zeros_like(ref)
        stepper = LSRK45(AcousticOperator(mesh, mat, elem, flux="riemann").rhs)
        for _ in range(3):
            stepper.step(ref, 0.0, dt, aux)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-5

        # setup() reloads the halos, so it drops a carried exchange
        sx = ShardedExecutor(mesh, CHIP, factory, n_shards=2)
        sx.setup(state)
        sx.run_steps(dt, n_steps=1)
        sx.setup(state)
        fresh = ShardedExecutor(mesh, CHIP, factory, n_shards=2)
        fresh.setup(state)
        assert (sx.run_steps(dt, n_steps=1).n_exchanges
                == fresh.run_steps(dt, n_steps=1).n_exchanges)

    def test_threaded_replay_matches_sequential(self):
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(1)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        state = _state(mesh, elem, 4, seed=5)
        results = []
        for jobs in (None, 2):
            sx = ShardedExecutor(mesh, CHIP, factory, n_shards=2, jobs=jobs)
            sx.setup(state)
            res = sx.run_steps(DT, n_steps=1)
            results.append((res.makespan_s, sx.state_digests(),
                            res.link_events))
        assert results[0] == results[1]


class TestScaling:
    def test_step_workload_shard_speedup(self):
        from repro.eval.bench import SHARD_SPEEDUP_FLOOR
        from repro.workloads.sharding import shard_step_workload

        wl = shard_step_workload()
        single_s, n_batches = single_chip_batched_makespan(
            wl["mesh"], wl["chip"], wl["kernel_factory"], dt=wl["dt"])
        # 64 elements overflow the 48-block proxy.  Two batches with their
        # halos need 32 + 32 = 64 blocks; four hold 16 owned + 32 halo.
        assert n_batches == 4
        sx = ShardedExecutor(wl["mesh"], wl["chip"], wl["kernel_factory"],
                             n_shards=4, counters=True)
        res = sx.run_steps(wl["dt"], n_steps=1, functional=False)
        speedup = single_s / res.makespan_s
        assert speedup >= SHARD_SPEEDUP_FLOOR
        # overlap is measured from counters, not asserted from the schedule
        assert res.exchange_overlap_s is not None
        assert res.overlap_fraction is not None
        assert 0.0 < res.overlap_fraction <= 1.0
        assert res.n_exchanges > 0 and res.exchange_busy_s > 0.0

    def test_overlap_unmeasured_without_counters(self):
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(1)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        sx = ShardedExecutor(mesh, CHIP, factory, n_shards=2)
        res = sx.run_steps(DT, n_steps=1, functional=False)
        assert res.exchange_overlap_s is None
        assert res.overlap_fraction is None

    def test_report_folds_link_accounting(self):
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(1)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        link = InterChipLink(latency_s=1e-6, bandwidth_bps=1e9)
        sx = ShardedExecutor(mesh, CHIP, factory, n_shards=2, link=link)
        res = sx.run_steps(DT, n_steps=1, functional=False)
        rep = res.report
        assert rep.time_by_tag["halo:exchange"] == res.exchange_busy_s
        assert rep.energy_by_tag["halo:exchange"] == pytest.approx(
            link.transfer_energy_j(res.exchange_bytes))
        assert rep.total_time_s == res.makespan_s
        # block busy keys are namespaced by shard
        assert all(isinstance(k, tuple) for k in rep.block_busy_s)

    def test_slow_link_shows_up_as_halo_wait(self):
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(1)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        slow = InterChipLink(latency_s=5e-3, bandwidth_bps=1e6)
        sx = ShardedExecutor(mesh, CHIP, factory, n_shards=2, link=slow,
                             verify_halo=False)
        sx.setup(_state(mesh, elem, 4))
        res = sx.run_steps(DT, n_steps=2)
        assert res.halo_wait_s > 0.0  # exchange no longer hides under compute


class TestCapacity:
    def test_r6_single_chip_cannot_hold_it(self):
        mesh = HexMesh.from_refinement_level(6)
        assert mesh.n_elements == 262_144
        with pytest.raises(ValueError, match="exceeds chip capacity"):
            ElementMapper(mesh.m, CHIP, 1)

    def test_r6_sharding_holds_it(self):
        mesh = HexMesh.from_refinement_level(6)
        n = shards_needed(mesh, CHIP, 1)
        assert n is not None and n > 1
        sharding = partition_mesh(mesh, n)
        worst = max((len(o) + len(h))
                    for o, h in zip(sharding.owned, sharding.halo))
        assert worst <= CHIP.n_blocks
        # and a shard mapper actually constructs at that size
        m0 = ShardMapper(mesh.m, CHIP, 1, owned=sharding.owned[0],
                         halo=sharding.halo[0], shard_id=0)
        assert m0.n_blocks_needed <= CHIP.n_blocks

    def test_shards_needed_tries_one_element_shards(self):
        """The last power of two, one element per shard, is tried too."""
        r1 = HexMesh.from_refinement_level(1)
        assert shards_needed(r1, _chip(4, blocks_per_tile=4), 1) == 8  # 1 + 3
        assert shards_needed(r1, _chip(3, blocks_per_tile=1), 1) is None
        r2 = HexMesh.from_refinement_level(2)
        assert shards_needed(r2, _chip(8, blocks_per_tile=8), 1) == 64  # 1 + 6

    def test_shard_mapper_overflow_names_the_shard(self):
        mesh = HexMesh.from_refinement_level(6)
        sharding = partition_mesh(mesh, 2)
        with pytest.raises(ValueError, match="shard 1: .*more shards"):
            ShardMapper(mesh.m, CHIP, 1, owned=sharding.owned[1],
                        halo=sharding.halo[1], shard_id=1)


class TestGantt:
    def test_sharded_track_events_merge_lanes(self):
        from repro.obs import INTERCHIP_PID, SHARD_PID0, sharded_track_events
        from repro.workloads.sharding import shard_step_workload

        wl = shard_step_workload()
        sx = ShardedExecutor(wl["mesh"], wl["chip"], wl["kernel_factory"],
                             n_shards=4, counters=True)
        res = sx.run_steps(wl["dt"], n_steps=1, functional=False)
        events = sharded_track_events(
            [sh.executor.counters for sh in sx.shards],
            link_events=res.link_events)
        pids = {e["pid"] for e in events}
        assert {SHARD_PID0 + k for k in range(4)} <= pids
        assert INTERCHIP_PID in pids
        link_slices = [e for e in events
                       if e["pid"] == INTERCHIP_PID and e["ph"] == "X"]
        assert len(link_slices) == res.n_exchanges
        names = {e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
        assert "shard 0" in names and "inter-chip links" in names


class TestBatching:
    """A batch is a shard that takes turns on one chip (paper §6.1)."""

    def test_proxy_batches_replay_every_face(self):
        """The batched baseline computes the cross-batch faces too: 384
        flux fetches per stage on the proxy, the whole mesh's count."""
        from repro.workloads.sharding import shard_step_workload

        wl = shard_step_workload()
        mesh = wl["mesh"]
        whole = wl["kernel_factory"](ElementMapper(mesh.m, CHIP, 1))
        per_stage = _flux_fetches(whole.flux())
        assert per_stage == 384
        (_, n_batches), fetches = _replayed_fetches(
            lambda: single_chip_batched_makespan(
                mesh, wl["chip"], wl["kernel_factory"], dt=wl["dt"]))
        assert n_batches == 4
        assert fetches == LSRK45.n_stages * per_stage

    def test_one_batch_is_plain_replay(self):
        """A mesh that fits runs as one batch: no swap, the single-chip
        plan replay's clock exactly."""
        mesh = HexMesh.from_refinement_level(1)
        elem = ReferenceElement(1)
        factory, g = _factory("acoustic1", "riemann", mesh, elem)
        ex = ChipExecutor(PimChip(CHIP))
        plan = ex.lower(factory(ElementMapper(mesh.m, CHIP, g)).time_step(DT))
        for _ in range(2):
            ex.run(plan, functional=False)
        assert single_chip_batched_makespan(
            mesh, CHIP, factory, dt=DT, n_steps=2) == (ex.now(), 1)

    def test_raises_when_no_batch_fits(self):
        mesh = HexMesh.from_refinement_level(2)
        elem = ReferenceElement(1)
        factory, g = _factory("elastic", "central", mesh, elem)
        # one element and its six neighbours need 7 x 4 = 28 blocks
        with pytest.raises(ValueError, match="cannot hold even one batch"):
            single_chip_batched_makespan(mesh, _chip(16), factory,
                                         blocks_per_element=g)

    def _proxy_vs_numpy(self, flux, seed, order=2, n_steps=2):
        """Functional 4-shard run on the 48-block proxy chip (16 owned +
        32 halo blocks per shard) for ``n_steps`` steps against numpy dG."""
        from repro.workloads.sharding import shard_proxy_chip

        mesh = HexMesh.from_refinement_level(2)
        elem = ReferenceElement(order)
        rng = np.random.default_rng(seed)
        mat = AcousticMaterial(kappa=rng.uniform(1.0, 2.0, mesh.n_elements),
                               rho=rng.uniform(0.5, 1.5, mesh.n_elements))
        state = (0.1 * rng.standard_normal(
            (4, mesh.n_elements, elem.n_nodes))).astype(np.float32)
        dt = cfl_timestep(mesh.h, mat.max_speed, elem.order, 0.3)
        sx = ShardedExecutor(
            mesh, shard_proxy_chip(),
            lambda m: AcousticOneBlockKernels(mesh, elem, mat, m, flux),
            n_shards=4)
        sx.setup(state)
        sx.run_steps(dt, n_steps=n_steps)
        ref = state.astype(np.float64)
        aux = np.zeros_like(ref)
        stepper = LSRK45(AcousticOperator(mesh, mat, elem, flux=flux).rhs)
        for _ in range(n_steps):
            stepper.step(ref, 0.0, dt, aux)
        return np.abs(sx.read_state() - ref).max() / np.abs(ref).max()

    def test_proxy_shards_match_numpy_riemann(self):
        assert self._proxy_vs_numpy("riemann", seed=0) < 5e-6

    def test_proxy_shards_match_numpy_central(self):
        assert self._proxy_vs_numpy("central", seed=4) < 5e-6

    def test_undersized_chip_matches_numpy(self):
        """The 64-element mesh overflows the 48-block chip; order-1
        elements, one step, each batch streamed with its halo."""
        from repro.workloads.sharding import shard_proxy_chip

        chip = shard_proxy_chip()
        mesh = HexMesh.from_refinement_level(2)
        assert chip.n_blocks == 48 < mesh.n_elements
        assert shards_needed(mesh, chip, 1) == 4
        assert self._proxy_vs_numpy("riemann", seed=3, order=1,
                                    n_steps=1) < 5e-6


#: (level, (physics, flux, n_vars)) draws: every family of the sweep at
#: level 1, and the one-block acoustic kernels at level 2 too.  A level-2
#: elastic or Maxwell draw costs 4-8 s; the fixed sweep runs them.
CASES = ([(1, (p, f, nv)) for p, f, _level, _n, nv in TestBitIdentity.SWEEP]
         + [(2, ("acoustic1", f, 4)) for f in ("riemann", "central")])


@given(case=st.sampled_from(CASES), n_shards=st.sampled_from([1, 2, 4, 8]),
       chip_tiles=st.integers(1, 8))
@settings(max_examples=10, deadline=None)
def test_random_sharding_differential(case, n_shards, chip_tiles):
    """Random mesh, kernel family, shard count and chip size (1-8 tiles of
    16 blocks, many too small for the whole mesh): PL005 is clean, one
    functional step on N shards equals one shard by block digest, and the
    batched baseline replays every face or refuses a chip no batch fits."""
    level, family = case
    physics, flux, n_vars = family
    mesh = HexMesh.from_refinement_level(level)
    elem = ReferenceElement(1)
    factory, g = _factory(physics, flux, mesh, elem)
    chip = _chip(16 * chip_tiles)
    whole = _chip(16 * -(-mesh.n_elements * g // 16))
    assert audit_sharding(mesh, partition_mesh(mesh, n_shards)) == []

    fits = shards_needed(mesh, chip, g)
    state = _state(mesh, elem, n_vars, seed=level)
    digests = []
    for n, cfg in ((1, whole),
                   (n_shards, chip if fits and fits <= n_shards else whole)):
        sx = ShardedExecutor(mesh, cfg, factory, n_shards=n,
                             blocks_per_element=g)
        sx.setup(state)
        sx.run_steps(DT, n_steps=1)
        digests.append(sx.state_digests())
    assert digests[0] == digests[1]

    if fits is None:
        with pytest.raises(ValueError, match="cannot hold even one batch"):
            single_chip_batched_makespan(mesh, chip, factory,
                                         blocks_per_element=g, dt=DT)
        return
    per_stage = _flux_fetches(factory(ElementMapper(mesh.m, whole, g)).flux())
    (_, n_batches), fetches = _replayed_fetches(
        lambda: single_chip_batched_makespan(mesh, chip, factory,
                                             blocks_per_element=g, dt=DT))
    assert n_batches == fits
    assert fetches == LSRK45.n_stages * per_stage
