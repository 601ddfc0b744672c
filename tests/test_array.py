"""Unit tests for the disk array (request fan-out, migration, energy)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.disks.array import ArrayConfig, DiskArray
from repro.sim.engine import Engine
from repro.sim.request import IoKind, Request


def make_request(extent: int, kind: IoKind = IoKind.READ, req_id: int = 0) -> Request:
    return Request(req_id=req_id, arrival=0.0, kind=kind, extent=extent, offset=0, size=4096)


@pytest.fixture
def array(engine, small_config) -> DiskArray:
    return DiskArray(engine, small_config)


def test_request_completes_with_callback(engine, array):
    done = []
    array.submit(make_request(extent=5), done.append)
    engine.run()
    assert len(done) == 1
    req = done[0]
    assert req.completion is not None and req.completion > 0
    assert req.latency > 0
    assert array.foreground_completed == 1


def test_request_routed_by_extent_map(engine, array):
    req = make_request(extent=6)
    array.submit(req)
    target = array.extent_map.disk_of(6)
    # The op landed on exactly the mapped disk's queue/service.
    busy = [d.index for d in array.disks if d.busy or d.queue_length]
    assert busy == [target]


def test_out_of_range_extent_raises(engine, array):
    with pytest.raises(ValueError):
        array.submit(make_request(extent=10_000))


def test_redirect_overrides_placement(engine, array):
    array.redirect = lambda req: (3, 0)
    req = make_request(extent=0)  # normally disk 0
    array.submit(req)
    busy = [d.index for d in array.disks if d.busy or d.queue_length]
    assert busy == [3]


def test_redirect_none_falls_through(engine, array):
    array.redirect = lambda req: None
    array.submit(make_request(extent=0))
    busy = [d.index for d in array.disks if d.busy or d.queue_length]
    assert busy == [array.extent_map.disk_of(0)]


def test_raid5_write_touches_two_disks(engine, small_config):
    config = dataclasses.replace(small_config, raid5=True)
    array = DiskArray(engine, config)
    done = []
    array.submit(make_request(extent=0, kind=IoKind.WRITE), done.append)
    busy = {d.index for d in array.disks if d.busy or d.queue_length}
    assert len(busy) == 2
    engine.run()
    assert len(done) == 1  # completes only when all 4 ops finish


def test_migrate_extent_moves_data(engine, array):
    src = array.extent_map.disk_of(0)
    dst = (src + 1) % array.num_disks
    moved = []
    assert array.migrate_extent(0, dst, moved.append)
    engine.run()
    assert moved == [0]
    assert array.extent_map.disk_of(0) == dst
    assert array.migration_extents_moved == 1
    assert array.migration_bytes == array.config.extent_bytes


def test_migrate_to_same_disk_is_noop(engine, array):
    src = array.extent_map.disk_of(0)
    assert not array.migrate_extent(0, src)


def test_migrate_respects_capacity(engine):
    config = ArrayConfig(num_disks=2, num_extents=4, slack_fraction=0.0, seed=1,
                         deterministic_latency=True)
    # slots_per_disk = 3 (even share 2 + 1); fill disk 1 to capacity first.
    array = DiskArray(engine, config)
    assert array.migrate_extent(0, 1)
    engine.run()
    assert array.extent_map.free_slots(1) == 0
    assert not array.migrate_extent(2, 1)


def test_concurrent_migrations_cannot_oversubscribe(engine):
    config = ArrayConfig(num_disks=2, num_extents=4, slack_fraction=0.0, seed=1,
                         deterministic_latency=True)
    array = DiskArray(engine, config)
    # Disk 1 has exactly one free slot; both moves target it at once.
    first = array.migrate_extent(0, 1)
    second = array.migrate_extent(2, 1)
    assert first
    assert not second  # reservation blocks the oversubscription
    engine.run()
    array.extent_map.check_invariants()


def test_migration_marker_not_foreground(engine, array):
    array.migrate_extent(0, 1)
    engine.run()
    assert array.foreground_completed == 0


def test_background_op_completes(engine, array):
    done = []
    array.submit_background_op(2, 0, IoKind.WRITE, 8192, done.append)
    engine.run()
    assert len(done) == 1
    assert done[0].finished is not None
    assert array.disks[2].ops_completed == 1


def test_set_all_speeds(engine, array):
    array.set_all_speeds(3000)
    engine.run()
    assert array.speeds() == [3000] * 4


def test_per_disk_speed(engine, array):
    array.set_speed(1, 6000)
    engine.run()
    assert array.speeds() == [15000, 6000, 15000, 15000]


def test_deterministic_runs_identical(small_config):
    def run_once() -> float:
        engine = Engine()
        array = DiskArray(engine, small_config)
        latencies = []
        for i in range(20):
            req = Request(req_id=i, arrival=0.0, kind=IoKind.READ,
                          extent=i % 80, offset=0, size=4096)
            engine.schedule(0.01 * i, array.submit, req, lambda r: latencies.append(r.latency))
        engine.run()
        return sum(latencies)

    assert run_once() == run_once()


def test_seeded_latency_randomness_reproducible(small_config):
    config = dataclasses.replace(small_config, deterministic_latency=False)

    def run_once() -> float:
        engine = Engine()
        array = DiskArray(engine, config)
        total = []
        for i in range(20):
            req = Request(req_id=i, arrival=0.0, kind=IoKind.READ,
                          extent=i % 80, offset=0, size=4096)
            engine.schedule(0.01 * i, array.submit, req, lambda r: total.append(r.latency))
        engine.run()
        return sum(total)

    assert run_once() == run_once()


def test_raid5_single_disk_rejected(engine, spec):
    config = ArrayConfig(num_disks=1, spec=spec, num_extents=4, raid5=True)
    with pytest.raises(ValueError):
        DiskArray(engine, config)


def test_initial_disks_keeps_cache_disks_empty(engine, small_config):
    config = dataclasses.replace(small_config, initial_disks=(2, 3))
    array = DiskArray(engine, config)
    occ = array.extent_map.occupancy()
    assert occ[0] == 0 and occ[1] == 0
    assert occ[2] + occ[3] == config.num_extents
