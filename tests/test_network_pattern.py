"""The network owns its parameter pattern; only realization builds a lumped plant.

`NdsModel.P_pattern` holds the routing entries on analysis ports, in their
order, then each free parameter block, in subsystem order. Entry order is
draw order (`StructuredPattern.draw`, `verify.mode_rank`), so the test
compares the items, order included, with the layout that
`oracles.lumped_pattern_entries` builds from the port counts alone.
"""

import pytest

from netctrl import exactla as ex
from netctrl import model
from netctrl.design import design_topology
from netctrl.model import ModelError, NdsModel, StructuredPattern, SubsystemModel
from netctrl.verify import (check_feasibility, check_structural_controllability,
                            randomized_realization_check)

from oracles import lumped_pattern_entries
from randgen import random_fixed_subsystems, random_nds

NETWORK_SEEDS = ([(seed, 3) for seed in range(24)] + [(seed, 8) for seed in range(12)]
                 + [(seed, 16) for seed in range(6)])


def test_pattern_entries_follow_the_reference_layout(sec7):
    networks = [sec7] + [random_nds(seed, max_sub, lft_prob=0.5)
                         for seed, max_sub in NETWORK_SEEDS]
    for nds in networks:
        assert list(nds.P_pattern.entries.items()) == \
            list(lumped_pattern_entries(nds).items())
        assert (nds.P_pattern.rows, nds.P_pattern.cols) == (nds.M_v, nds.M_z)
    # the layout is exercised with both kinds of entry in one network
    assert any(nds.scm.entries and any(s.has_free_params for s in nds.subsystems)
               for nds in networks)


def _free_block_sub(pid: str) -> SubsystemModel:
    one = ex.mat([[1]])
    return SubsystemModel(A_xx0=one, A_xv0=one, B_xu0=one, A_zx0=one, A_zv0=ex.mat([[0]]),
                          B_zu0=one, E1=one, E2=one, F1=one, F2=one, F3=one,
                          H=ex.mat([[0]]),
                          param_block=StructuredPattern(1, 1, {(0, 0): pid}))


def test_parameter_ids_distinct_across_routing_and_blocks():
    sub = _free_block_sub("a")
    with pytest.raises(ModelError, match="parameter ids must be globally distinct"):
        NdsModel([sub], StructuredPattern(1, 1, {(0, 0): "a"}))
    with pytest.raises(ModelError, match="parameter ids must be globally distinct"):
        NdsModel([sub, _free_block_sub("a")], StructuredPattern(2, 2, {}))
    # the shape check comes first
    with pytest.raises(ModelError, match="interconnection pattern is 2x1"):
        NdsModel([sub], StructuredPattern(2, 1, {(0, 0): "a"}))


@pytest.fixture
def plants_built(monkeypatch):
    """A list that gets one entry per LumpedPlant construction."""
    built = []
    init = model.LumpedPlant.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.LumpedPlant, "__init__", counting_init)
    return built


def test_only_realization_builds_a_lumped_plant(monkeypatch, sec7, plants_built):
    networks = [sec7] + [random_nds(seed, max_sub, lft_prob=0.5)
                         for seed, max_sub in NETWORK_SEEDS[::4]]
    for nds in networks:
        check_structural_controllability(nds)
    designs = [sec7.subsystems] + [random_fixed_subsystems(seed, 4) for seed in range(6)]
    feasible = [subs for subs in designs if check_feasibility(subs).feasible]
    for subs in feasible:
        design_topology(subs)
    assert len(feasible) >= 2 and plants_built == []
    for nds in networks:
        randomized_realization_check(nds, trials=3)
    # the modular closure reads the subsystems' blocks: realization builds
    # the plant only when a draw falls back to the exact closure, and then
    # once per call
    assert plants_built == []
    monkeypatch.setattr(ex, "solve_mod", lambda a, b, p: None)
    for nds in networks:
        before = len(plants_built)
        randomized_realization_check(nds, trials=3)
        assert len(plants_built) == before + bool(nds.P_pattern.entries)
    assert len(plants_built) == len(networks)

