"""The benchmark's tracer hooks into names of the package; they must exist.

`bench/spans.py` wraps entry points such as `lattice_exact.exact_d_matrix`
and the `exact_det` name that `lattice_exact` imports, and reads the horizon
of `engine._simulate_block` from its second positional argument. A renamed
hook, or a simulator that draws around `StepDistribution.sample_array`,
would otherwise surface only in a traced benchmark run. Likewise every spec
the workloads run must pass `validate_spec`.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from ordwalk import engine, lattice_exact, transform
from ordwalk.cli import validate_spec
from ordwalk.distributions import make_distribution
from ordwalk.engine import WalkConfig, WorkCounts

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_spec_validates():
    workloads = _load_bench("workloads")
    items = [item for items in workloads.WORKLOADS.values() for item in items
             if item.kind != workloads.GAP_SURVIVAL]
    assert items
    for index, item in enumerate(items):
        assert validate_spec(item.spec_text(100 + index)).kind == item.kind


def test_every_workload_spec_reads_the_same_as_yaml():
    # the workloads' JSON specs parse by json; the same documents written as
    # YAML parse by PyYAML, and must validate to the same specs
    workloads = _load_bench("workloads")
    texts = [item.spec_text(7) for items in workloads.WORKLOADS.values() for item in items
             if item.kind != workloads.GAP_SURVIVAL]
    for text in texts:
        as_yaml = yaml.safe_dump(json.loads(text))
        assert as_yaml != text
        assert validate_spec(as_yaml) == validate_spec(text)


def test_tracer_installs_and_uninstalls():
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()  # AttributeError if a hooked name is gone
        hooks = list(tracer._originals)
        assert hooks
        assert all(getattr(owner, attr) is not original for owner, attr, original in hooks)
        cfg = WalkConfig(k=2, start=(0, 1), dist=make_distribution("rademacher"))
        assert lattice_exact.exact_km_check(cfg, 3).passed  # through the wrapper
        assert tracer.self_s["lattice_exact.identity"] > 0
        assert tracer.counts["lattice_exact.cell_steps"] > 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in hooks)


def test_traced_batch_survival_counts_the_untraced_work():
    cfg = WalkConfig(k=3, start=(0, 1, 2), dist=make_distribution("rademacher"),
                     master_seed=3)
    horizons, paths = [4, 32], 20_000  # two blocks, the second partial
    work = WorkCounts()
    untraced = engine.batch_survival(cfg, horizons, paths, work=work)
    # sum of min(tau, horizon) straight from the untraced blocks
    path_steps = sum(
        int(np.minimum(engine._simulate_block(cfg, 32, b, size)[0], 32).sum())
        for b, size in enumerate(engine._block_sizes(paths)))
    assert work.path_steps == path_steps and work.paths == paths
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        traced = engine.batch_survival(cfg, horizons, paths)
    finally:
        tracer.uninstall()
    assert [(h, e.mean) for h, e in traced] == [(h, e.mean) for h, e in untraced]
    assert tracer.counts["distributions.draws"] > 0
    assert tracer.counts["engine.path_steps"] == path_steps
    assert tracer.counts["engine.paths"] == paths


def _chunk_cells(tau, horizon):
    """Path-steps a block's chunks cover, from its exit times: with m paths
    alive after n steps, the next chunk runs max(1, CHUNK_CELLS // m,
    min(4 CHUNK_CELLS // m, n)) steps, cut at the horizon, for all m."""
    n = cells = 0
    while n < horizon and (m := int((tau > n).sum())):
        cap = min(4 * engine.CHUNK_CELLS // m, n)
        t = min(max(1, engine.CHUNK_CELLS // m, cap), horizon - n)
        cells += t * m
        n += t
    return cells


@pytest.mark.parametrize("k, snap_step", [(2, None), (3, 8)])
def test_traced_gaussian_blocks_count_every_normal_drawn(k, snap_step):
    # a Gaussian block draws k - 1 normals per chunk cell and one centre per
    # row, and one more per row with a snapshot, all through sample_array
    cfg = WalkConfig(k=k, start=tuple(float(i) for i in range(k)),
                     dist=make_distribution("gaussian"), master_seed=3)
    horizon, paths = 32, 20_000  # two blocks, the second partial
    untraced = list(engine._blocks(cfg, horizon, paths, snap_step=snap_step, stopped=True))
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        traced = list(engine._blocks(cfg, horizon, paths, snap_step=snap_step, stopped=True))
    finally:
        tracer.uninstall()
    assert len(traced) == len(untraced) == 2
    for got, want in zip(traced, untraced):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    cells = sum(_chunk_cells(block[0], horizon) for block in untraced)
    centres = paths * (1 if snap_step is None else 2)
    assert tracer.counts["distributions.draws"] == (k - 1) * cells + centres


@pytest.mark.parametrize("masses, k, snap_step", [
    (None, 2, None),
    (None, 3, 8),
    ({-1: Fraction(1000, 4099), 0: Fraction(2099, 4099), 1: Fraction(1000, 4099)}, 3, None),
])
def test_traced_lattice_blocks_count_every_slot_drawn(masses, k, snap_step):
    # a lattice block draws k slots per chunk cell through sample_array and
    # nothing else: its snapshot and positions are rebuilt from slot counts
    dist = (make_distribution("rademacher") if masses is None
            else make_distribution("custom_lattice", masses=masses))
    cfg = WalkConfig(k=k, start=tuple(range(k)), dist=dist, master_seed=3)
    horizon, paths = 32, 20_000  # two blocks, the second partial
    untraced = list(engine._blocks(cfg, horizon, paths, snap_step=snap_step, stopped=True))
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        traced = list(engine._blocks(cfg, horizon, paths, snap_step=snap_step, stopped=True))
    finally:
        tracer.uninstall()
    assert len(traced) == len(untraced) == 2
    for got, want in zip(traced, untraced):
        assert all(a is b or np.array_equal(a, b) for a, b in zip(got, want))
    cells = sum(_chunk_cells(block[0], horizon) for block in untraced)
    assert tracer.counts["distributions.draws"] == k * cells


def test_traced_transformed_pair_paths_match_the_untraced():
    n, paths = 64, 3000
    untraced = transform.transformed_pair_paths((0, 1), n, paths, master_seed=4)
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        traced = transform.transformed_pair_paths((0, 1), n, paths, master_seed=4)
    finally:
        tracer.uninstall()
    assert np.array_equal(traced, untraced)
    # the counter assumes one step per path and time step
    assert tracer.counts["transform.chain_steps"] == n * paths


@pytest.mark.parametrize("dist,start,n,alive", [
    ("rademacher", (0, 1, 2), 7, [1, 4, 10, 20, 35, 56, 84, 120]),
    ("lazy_lattice", (0, 1), 9, [1, 6, 15, 28, 45, 66, 91, 120, 153, 190]),
])
def test_forward_tables_count_the_alive_configurations(dist, start, n, alive):
    # the tracer's cell_steps read len(survival[m]) as the configurations
    # alive at time m
    cfg = WalkConfig(k=len(start), start=start, dist=make_distribution(dist))
    survival, _ = lattice_exact._forward_tables(cfg, n)
    assert [len(table) for table in survival] == alive


def test_traced_cell_steps_are_joint_steps_times_alive_configurations():
    cfg = WalkConfig(k=3, start=(0, 1, 2), dist=make_distribution("rademacher"))
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        lattice_exact.exact_survival_kernel(cfg, 7)
    finally:
        tracer.uninstall()
    # 2^3 joint steps from each of 1 + 4 + ... + 84 = 210 alive configurations
    assert tracer.counts["lattice_exact.cell_steps"] == 8 * 210


def test_traced_gap_survival_records_the_gap_dp_span_and_cell_steps():
    # spans.py wraps lattice_exact._gap_chain_dp and counts gap_cell_steps
    # from lattice_exact._gap_step_law(dist) read as (offsets, probs):
    # n (start_gap + n max(offsets) + 1) cells at the last horizon n
    rad = make_distribution("rademacher")
    untraced = lattice_exact.gap_chain_survival(rad, 1, [16, 64])
    tracer = _load_bench("spans").Tracer()
    try:
        tracer.install()
        traced = lattice_exact.gap_chain_survival(rad, 1, [16, 64])
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.self_s["lattice_exact.gap_dp"] > 0
    assert tracer.counts["lattice_exact.gap_cell_steps"] == 64 * (1 + 64 * 2 + 1)
