"""End-to-end acceptance criteria, one test per criterion.

Each test appends a PASS line to the terminal summary (a failure raises, so
a printed line certifies the criterion ran green at its stated tolerance).
`test_product_rank_matches_intersection` is a cross-check on the same
instances and prints no line.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from netctrl import exactla as ex
from netctrl import ratfun, verify
from netctrl.cli import main
from netctrl.data import sec7_path
from netctrl.design import (InfeasibleDesignError, brute_force_min_topology,
                            design_topology, g_value, greedy_link_rows)
from netctrl.matroid import GenericPattern, matroid_intersection_rank
from netctrl.model import NdsModel, StructuredPattern, assemble_lumped
from netctrl.verify import (check_fum_networked, check_structural_controllability,
                            randomized_realization_check)

from conftest import ACCEPTANCE_LINES
from oracles import (check_fum_lumped, dense_columns, dense_y, dense_z, exhaustive_union_rank,
                     matroid_union_rank, minimal_rows_exhaustive)
from randgen import random_fixed_subsystems, random_nds

N_INSTANCES = 100


def _pass(num: int, text: str):
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def instances():
    return [random_nds(1000 + i) for i in range(N_INSTANCES)]


@pytest.fixture(scope="module")
def instance_checks(instances):
    """Per-instance networked mode checks, shared by criteria 5 and 6."""
    return [check_fum_networked(nds) for nds in instances]


def test_criterion_1_pdum_witness(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "check.json"
    code = main(["check", sec7_path(), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 1
    report = json.loads(out.read_text())
    witness = report["result"]["pdum_witness"]
    assert witness is not None
    assert set(witness) == {"v12", "z11", "v32", "z32", "v21", "z21"}
    # rotation of the published order is allowed; cyclic order must match
    doubled = witness + witness
    assert any(doubled[i:i + 6] == ["v12", "z11", "v32", "z32", "v21", "z21"]
               for i in range(6))
    assert report["result"]["structurally_controllable"] is False
    assert elapsed < 1.0
    _pass(1, f"given-pattern verdict uncontrollable, witness cycle "
             f"{{v12,z11,v32,z32,v21,z21}} in {elapsed:.2f}s")


def test_criterion_2_spectrum(sec7):
    spec = ratfun.spectrum(sec7)
    assert spec.m == 3
    want = [1.0, 0.0, -1.0]
    got = sorted((complex(v) for v in spec.values), key=lambda z: -z.real)
    assert all(abs(g - w) <= 1e-6 for g, w in zip(got, want))
    _pass(2, "pooled eigenvalues {1, 0, -1}, m=3, within 1e-6")


def test_criterion_3_unstable_design(sec7):
    t0 = time.perf_counter()
    res = design_topology(sec7.subsystems, "unstable")
    assert sorted(a + 1 for a in res.j_grd) == [3, 5]
    assert [[s + 1 for s in c] for c in res.cover_sets] == [
        [3, 5, 7, 11], [3, 5, 7, 9, 11]]
    assert [(r + 1, c + 1) for r, c in res.positions] == [(3, 4), (5, 2)]
    designed = NdsModel(sec7.subsystems, res.phi)
    spec = ratfun.spectrum(designed)
    unstable = [l for l in spec.values if l.real >= -1e-9]
    assert [complex(l) for l in unstable] == [1 + 0j, 0j]
    checks = check_fum_networked(designed, spec.filtered("unstable"))
    assert [complex(mc.lam) for mc in checks] == [1 + 0j, 0j]
    assert not any(mc.is_fum for mc in checks)
    real = randomized_realization_check(designed, seed=3, trials=3)
    assert not real.controllable_witness
    assert real.last_uncontrollable_modes
    assert all(abs(l - (-1.0)) <= 1e-6 for l in real.last_uncontrollable_modes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(3, f"unstable-mode design links (3,4),(5,2); unstable modes cleared; "
             f"realization uncontrollable only at -1 ({elapsed:.2f}s)")


def test_criterion_4_full_design_and_minimality(sec7, tmp_path):
    t0 = time.perf_counter()
    res = design_topology(sec7.subsystems, "all")
    assert sorted(a + 1 for a in res.j_grd) == [1, 3, 5]
    assert [[s + 1 for s in c] for c in res.cover_sets][2] == [1, 5, 7, 9, 11]
    assert [(r + 1, c + 1) for r, c in res.positions] == [(1, 4), (3, 4), (5, 2)]
    doc = json.loads(open(sec7_path()).read())
    doc["scm"] = {"free": [[r + 1, c + 1] for r, c in res.positions]}
    path = tmp_path / "designed.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(tmp_path / "r.json")]) == 0
    best = brute_force_min_topology(sec7.subsystems, max_links=3)
    assert best is not None and best.num_free == 3
    none2 = brute_force_min_topology(sec7.subsystems, max_links=2)
    assert none2 is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(4, f"full design links (5,2),(1,4),(3,4) verdict controllable; "
             f"exhaustive search confirms 3-link minimum ({elapsed:.2f}s)")


def test_criterion_5a_lumped_equals_networked(instances, instance_checks):
    # the default instances plus larger networks from the max_sub 8 and 16 rungs
    ladder = ([random_nds(seed, max_sub=8) for seed in range(2000, 2010)]
              + [random_nds(seed, max_sub=16) for seed in range(3000, 3004)])
    cases = list(zip(instances, instance_checks))
    cases += [(nds, check_fum_networked(nds)) for nds in ladder]
    assert any(mc.is_fum for _, net in cases[len(instances):] for mc in net)
    for i, (nds, net) in enumerate(cases):
        lum = check_fum_lumped(nds, seed=10_000 + i)
        assert [mc.is_fum for mc in net] == [mc.is_fum for mc in lum], \
            f"instance {i}"
    _pass(5, f"(a) lumped union test agrees with networked intersection test "
             f"on {len(cases)} instances")


def test_criterion_5b_intersection_equals_product_rank(instances, instance_checks):
    rng = random.Random(5)
    for i, (nds, checks) in enumerate(zip(instances, instance_checks)):
        pat = assemble_lumped(nds).P_pattern
        spec = ratfun.spectrum(nds)
        for mc, lam in zip(checks, spec.values):
            md = ratfun.mode_data(nds, lam)
            bound = 4 * max(1, pat.num_free) * max(1, nds.M_z)
            best = 0
            for _ in range(3):
                vals = {pid: Fraction(rng.randint(1, bound))
                        for pid in pat.entries.values()}
                pv = ex.to_float(pat.substitute(vals))
                prod = dense_y(md) @ pv + dense_z(md)
                best = max(best, ex.float_rank(prod, 1e-9))
                if best == mc.achieved:
                    break
            assert best == mc.achieved, f"instance {i}, mode {lam}"
    _pass(5, f"(b) intersection rank equals randomized product rank on every "
             f"mode of {len(instances)} instances")


def test_product_rank_matches_intersection(instances, instance_checks):
    # criterion 5b compares against check_fum_networked, which settles most
    # modes by a product rank itself; this keeps the exact intersection as an
    # independent reference on every mode, including larger networks
    ladder = [random_nds(seed, max_sub=max_sub)
              for max_sub, seed in ((8, 7), (8, 12), (8, 24), (16, 9), (16, 12))]
    cases = list(zip(instances, instance_checks))
    cases += [(nds, check_fum_networked(nds)) for nds in ladder]
    for i, (nds, checks) in enumerate(cases):
        q1 = GenericPattern(verify.routing_pattern_q1(assemble_lumped(nds).P_pattern))
        spec = ratfun.spectrum(nds)
        assert [mc.lam for mc in checks] == spec.values
        for mc in checks:
            md = ratfun.mode_data(nds, mc.lam)
            q2 = dense_columns(np.hstack([dense_y(md), dense_z(md)]))
            want = matroid_intersection_rank(q1, q2).certified_rank if md.M_r else 0
            assert mc.achieved == want, f"case {i}, mode {mc.lam}"


def test_criterion_5c_union_randomized_equals_exhaustive():
    rng = random.Random(6)
    for trial in range(N_INSTANCES):
        ground = rng.randint(1, 12)
        numeric = [[Fraction(rng.randint(-2, 2)) for _ in range(ground)]
                   for _ in range(rng.randint(1, 4))]
        rows = rng.randint(0, 3)
        positions = [(r, c) for r in range(rows) for c in range(ground)
                     if rng.random() < 0.4]
        pat = StructuredPattern(rows, ground,
                                {(r, c): f"u_{r}_{c}" for r, c in positions})
        assert matroid_union_rank(numeric, pat, seed=trial) == \
            exhaustive_union_rank(numeric, pat), f"trial {trial}"
    _pass(5, f"(c) randomized union rank equals exhaustive union rank on "
             f"{N_INSTANCES} grounds of size <= 12")


# Larger rungs for criterion 6, in the shape of the benchmark's
# heterogeneous pool (`perfbench/workloads.hetero_nds`): (max_sub, seed).
# Seeds 60, 61 and 188 at max_sub 8 and 52 at max_sub 16 are controllable
# networks on which float PBH trials found no witness.
REALIZATION_LADDER = ([(8, seed) for seed in (*range(8), 60, 61, 188)]
                      + [(16, seed) for seed in (*range(4), 52)])


def test_criterion_6_realization_agreement(instances):
    agree_true = agree_false = 0
    for i, nds in enumerate(instances):
        verdict = check_structural_controllability(nds)
        found = randomized_realization_check(nds, seed=30_000 + i, trials=10)
        if verdict.structurally_controllable:
            assert found.controllable_witness, f"instance {i}: no witness"
            agree_true += 1
        else:
            assert not found.controllable_witness, f"instance {i}: spurious witness"
            agree_false += 1
    assert agree_true and agree_false  # both sides of the dichotomy exercised
    ladder = {True: 0, False: 0}
    for max_sub, seed in REALIZATION_LADDER:
        nds = random_nds(seed, max_sub, max_state=4, max_port=3, scm_density=0.35)
        verdict = check_structural_controllability(nds).structurally_controllable
        found = randomized_realization_check(nds, seed=0, trials=10)
        assert found.controllable_witness == verdict, f"max_sub {max_sub} seed {seed}"
        ladder[verdict] += 1
    assert ladder[True] and ladder[False]
    _pass(6, f"realization check agrees with the structural verdict on "
             f"{agree_true} controllable and {agree_false} uncontrollable instances, "
             f"and on {ladder[True]} controllable and {ladder[False]} uncontrollable "
             f"max_sub 8 and 16 networks (10 trials)")


def test_criterion_7_submodularity_and_greedy_bound(instances):
    rng = random.Random(7)
    usable = []
    for nds in instances:
        spec = ratfun.spectrum(nds)
        modes = [ratfun.mode_data(nds, lam) for lam in spec.values]
        usable.append((nds, modes))
    checks = 0
    idx = 0
    while checks < 200:
        nds, modes = usable[idx % len(usable)]
        idx += 1
        mv = nds.M_v
        if mv < 2:
            continue
        ground = list(range(mv))
        rng.shuffle(ground)
        cut1 = rng.randint(0, mv - 1)
        cut2 = rng.randint(cut1, mv - 1)
        s1, s2 = set(ground[:cut1]), set(ground[:cut2])
        s = ground[cut2]
        gain1 = g_value(s1 | {s}, modes) - g_value(s1, modes)
        gain2 = g_value(s2 | {s}, modes) - g_value(s2, modes)
        assert gain1 >= gain2, f"submodularity violated on instance {idx}"
        checks += 1
    bound_checked = 0
    for nds, modes in usable:
        if nds.M_v > 8:
            continue
        target = sum(md.M_r for md in modes)
        if g_value(range(nds.M_v), modes) != target:
            continue  # row selection alone cannot cover this instance
        rows, _ = greedy_link_rows(modes, nds.M_v)
        best = minimal_rows_exhaustive(modes, nds.M_v)
        assert best is not None
        assert len(rows) <= (1 + math.log(max(2, nds.M_x))) * max(1, len(best))
        bound_checked += 1
    assert bound_checked >= 10
    _pass(7, f"200 submodularity spot checks passed; greedy row count within "
             f"(1+ln M_x) of the optimum on {bound_checked} instances")


def test_criterion_8_design_bound_report(sec7):
    runs = []
    for mode_filter in ("unstable", "all"):
        res = design_topology(sec7.subsystems, mode_filter)
        assert res.bound_report["bound_holds"], res.bound_report
        runs.append(res)
    designed = 0
    for seed in range(40):
        subs = random_fixed_subsystems(seed, max_sub=3, max_state=3, max_port=2)
        try:
            res = design_topology(subs, "all")
        except InfeasibleDesignError:
            continue
        rep = res.bound_report
        assert rep["bound_holds"], (seed, rep)
        assert rep["links_total"] <= max(
            1, 2 * max(rep["M_rmax"], 1) * (1 + math.log(max(rep["M_def"], 1)))
            * (rep["p_ius"] + rep["j_grd_size"])) or rep["links_total"] == 0
        designed += 1
    assert designed >= 10
    _pass(8, f"link-count bound held on the two reference designs and "
             f"{designed} random design runs")
