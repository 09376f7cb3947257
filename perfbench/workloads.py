"""Seeded instance pools and the four benchmark workloads.

Every benchmark input is a system document built from one pool instance:
a family, a rung of its size ladder and a generator seed. The pools are
fixed. `golden.json` holds each pool instance's dimensions, its model
digest, its call time per command (scaled to reference host speed, see
`hostspeed`) at the commit that introduced the benchmark and, for the
`check` families, the verdict recorded there. The benchmark seed draws one
instance from each of a rung's narrow cost strata (`strata`), so each seed
runs other inputs with the same cost profile.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from netctrl import cli
from netctrl.data import sec7_path
from netctrl.model import (ModelError, NdsModel, StructuredPattern,
                           check_well_posedness)

import randgen

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# family -> rung -> number of pool seeds (seeds 0 .. n-1)
POOLS = {
    "hetero": {3: 192, 8: 192, 16: 64},
    "homog": {4: 96, 8: 96, 12: 96, 16: 96},
    "design": {4: 192, 8: 192, 16: 192},
}

HOMOG_DENSITY = 0.35


def hetero_nds(seed: int, max_sub: int) -> NdsModel:
    """Heterogeneous random network: many distinct modes, small targets."""
    return randgen.random_nds(seed, max_sub, max_state=4, max_port=3,
                              scm_density=0.35)


def homog_nds(seed: int, agents: int) -> NdsModel:
    """`agents` identical subsystems under a random well-posed routing.

    A freshly seeded rng per agent draws identical matrices; the agent index
    keeps names and parameter ids distinct. All agents share their modes,
    so the network has one to three pooled modes of multiplicity `agents`.
    """
    subs = [randgen.random_subsystem(random.Random(seed), i + 1, max_state=3,
                                     max_port=2, lft_prob=0.5)
            for i in range(agents)]
    mv = sum(s.m_v0 for s in subs)
    mz = sum(s.m_z0 for s in subs)
    rng = random.Random(seed * 1_000_003 + agents)
    for _ in range(64):
        free = [(r, c) for r in range(mv) for c in range(mz)
                if rng.random() < HOMOG_DENSITY]
        try:
            nds = NdsModel(subs, StructuredPattern(
                mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in free}))
        except ModelError:
            continue
        if check_well_posedness(nds, trials=3, seed=seed).well_posed:
            return nds
    raise RuntimeError(f"no well-posed homogeneous network for seed {seed}")


def design_nds(seed: int, max_sub: int) -> NdsModel:
    """Fixed subsystems with an empty routing pattern, for `design`."""
    subs = randgen.random_fixed_subsystems(seed, max_sub, max_state=3, max_port=2)
    return NdsModel(subs, StructuredPattern(sum(s.m_v0 for s in subs),
                                            sum(s.m_z0 for s in subs), {}))


BUILDERS = {"hetero": hetero_nds, "homog": homog_nds, "design": design_nds}


def build_document(family: str, rung: int, seed: int) -> dict:
    nds = BUILDERS[family](seed, rung)
    return cli.serialize_document(nds, dict(cli.DEFAULT_OPTIONS))


def sec7_document() -> dict:
    with open(sec7_path(), encoding="utf-8") as fh:
        return json.load(fh)


# Workload -> (command arguments, pool family, documents per rung, include sec7).
# A pass takes a third of a 25 s run or less, so each document runs in three
# or more passes. The counts put the median and the tail percentile among
# close neighbours in cost, so those quantiles repeat across seeds.
WORKLOADS = {
    "check-hetero": (["check"], "hetero", {3: 24, 8: 44, 16: 5}, True),
    "check-homog": (["check"], "homog", {4: 12, 8: 24, 12: 20, 16: 10}, False),
    "design": (["design", "--modes", "all"], "design", {4: 20, 8: 40, 16: 60}, False),
    "realize": (["realize"], "hetero", {3: 12, 8: 20, 16: 4}, True),
}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# Pool entries per stratum: a seed chooses among this many neighbours in cost.
STRATUM_WIDTH = 2


def strata(pool: list[dict], docs: int, command: str) -> list[list[dict]]:
    """`docs` narrow strata of a pool, at evenly spaced quantiles of recorded cost.

    Stratum i holds the STRATUM_WIDTH entries nearest the (i + 1/2) / docs
    quantile of the pool sorted by recorded call time. A seed draws one
    entry per stratum, so every seed runs the same cost profile on other
    inputs, and neither the time of a pass nor a per-call quantile depends
    much on the seed.
    """
    pool = sorted(pool, key=lambda e: (e["ref_ms"][command], e["seed"]))
    n = len(pool)
    out = []
    for i in range(docs):
        lo = min(max(0, (2 * i + 1) * n // (2 * docs) - STRATUM_WIDTH // 2), n - STRATUM_WIDTH)
        out.append(pool[lo:lo + STRATUM_WIDTH])
    return out


def select(workload: str, seed: int, golden: dict) -> list[dict]:
    """The pool entries a workload runs for one benchmark seed."""
    command, family, counts, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [dict(rng.choice(group), family=family, rung=rung)
            for rung, docs in counts.items()
            for group in strata(golden[family][str(rung)], docs, command[0])]
