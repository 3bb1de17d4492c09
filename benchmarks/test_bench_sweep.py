"""Sweep engine bench: single-pass stack distance vs per-configuration grid.

Runs the two paper figure sweeps (the full size x associativity grid
over the measurement trace, double warm-up methodology) through both
execution engines and records, per figure: wall-clock, the number of
simulation passes over the trace, and the speedup.  The single-pass
stack-distance engine replays the trace twice per figure (warm +
measured) where the grid replays it twice per configuration -- 60
passes for the 30-point grid -- so the advantage is structural
(core-count independent), not parallelism.

The engines' outputs are asserted bitwise-identical while we are
here, on the full-scale trace the figures actually use.
"""

import time

import pytest

from repro.sweep import SweepSpec, run_sweep


def _timed(spec, events):
    start = time.time()
    surface = run_sweep(spec, events)
    return surface, time.time() - start


@pytest.mark.slow
@pytest.mark.parametrize("cache", ["itlb", "icache"])
def test_sweep_single_pass_vs_grid(cache, events, wallclock_records):
    single, single_seconds = _timed(
        SweepSpec(cache=cache, double_pass=True, engine="auto"),
        events)
    grid, grid_seconds = _timed(
        SweepSpec(cache=cache, double_pass=True, engine="grid"),
        events)

    assert single.counts == grid.counts  # bitwise, full paper grid
    assert single.meta["trace_passes"] == 2
    assert grid.meta["trace_passes"] == 60

    wallclock_records[f"sweep::{cache}_single_pass"] = {
        "wall_seconds": round(single_seconds, 3),
        "trace_passes": single.meta["trace_passes"],
    }
    wallclock_records[f"sweep::{cache}_grid"] = {
        "wall_seconds": round(grid_seconds, 3),
        "trace_passes": grid.meta["trace_passes"],
        "speedup_single_pass": round(grid_seconds / single_seconds, 3),
    }
