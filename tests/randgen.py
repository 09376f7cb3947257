"""Seeded random system instances shared by the property and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction

from netctrl.model import NdsModel, StructuredPattern, SubsystemModel, ModelError
from netctrl.model import check_well_posedness
from netctrl.verify import check_feasibility


def _rmat(rng: random.Random, rows: int, cols: int, density: float = 0.6,
          span: int = 2):
    return [[Fraction(rng.randint(-span, span)) if rng.random() < density
             else Fraction(0) for _ in range(cols)] for _ in range(rows)]


def random_subsystem(rng: random.Random, index: int, max_state: int = 3,
                     max_port: int = 2, lft_prob: float = 0.3) -> SubsystemModel:
    with_block = rng.random() < lft_prob
    m_x = rng.randint(1, max_state)
    m_u = rng.randint(1, 2)
    # a free block adds one auxiliary port pair; keep analysis ports <= max_port
    m_v = rng.randint(1, max_port - 1) if with_block else rng.randint(1, max_port)
    m_z = rng.randint(1, max_port - 1) if with_block else rng.randint(1, max_port)
    kwargs = dict(
        A_xx0=_rmat(rng, m_x, m_x),
        A_xv0=_rmat(rng, m_x, m_v),
        B_xu0=_rmat(rng, m_x, m_u, density=0.7),
        A_zx0=_rmat(rng, m_z, m_x),
        A_zv0=_rmat(rng, m_z, m_v, density=0.4),
        B_zu0=_rmat(rng, m_z, m_u, density=0.4),
        name=f"rnd{index}",
    )
    if with_block:
        kwargs.update(
            E1=_rmat(rng, m_x, 1), E2=_rmat(rng, m_z, 1),
            F1=_rmat(rng, 1, m_x), F2=_rmat(rng, 1, m_v), F3=_rmat(rng, 1, m_u),
            H=_rmat(rng, 1, 1, density=0.5, span=1),
            param_block=StructuredPattern(1, 1, {(0, 0): f"p{index}_0_0"}),
        )
    return SubsystemModel(**kwargs)


def identical_agents(seed: int, n: int, lft_prob: float = 0.5) -> list[SubsystemModel]:
    """n agents `random_subsystem(random.Random(seed), i, lft_prob=lft_prob)`,
    i = 1..n: the first one and n - 1 repeats of it (`SubsystemModel.repeat`),
    which share its analysis form."""
    first = random_subsystem(random.Random(seed), 1, lft_prob=lft_prob)
    return [first] + [first.repeat(f"rnd{i}", f"p{i}") for i in range(2, n + 1)]


def random_nds(seed: int, max_sub: int = 3, max_state: int = 3, max_port: int = 2,
               lft_prob: float = 0.3, scm_density: float = 0.35) -> NdsModel:
    """A well-posed random networked system; deterministic in the seed."""
    rng = random.Random(seed)
    for _ in range(64):
        n_sub = rng.randint(1, max_sub)
        subs = [random_subsystem(rng, i + 1, max_state, max_port, lft_prob)
                for i in range(n_sub)]
        mv = sum(s.m_v0 for s in subs)
        mz = sum(s.m_z0 for s in subs)
        free = [(r, c) for r in range(mv) for c in range(mz)
                if rng.random() < scm_density]
        scm = StructuredPattern(mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in free})
        try:
            nds = NdsModel(subs, scm)
        except ModelError:
            continue
        if check_well_posedness(nds, trials=3, seed=seed).well_posed:
            return nds
    raise RuntimeError(f"no well-posed instance for seed {seed}")


def random_fixed_subsystems(seed: int, max_sub: int = 3, max_state: int = 3,
                            max_port: int = 2):
    """Subsystems without free parameter blocks, for design instances."""
    rng = random.Random(seed)
    n_sub = rng.randint(1, max_sub)
    return [random_subsystem(rng, i + 1, max_state, max_port, lft_prob=0.0)
            for i in range(n_sub)]


def design_network(n: int, seed: int = 1) -> list[SubsystemModel]:
    """n fixed subsystems `random_subsystem(rng, i, 3, 2, lft_prob=0)` from
    one generator, each kept only when it passes the design feasibility
    test alone: the design networks of the size table in ROADMAP.md."""
    rng = random.Random(seed)
    subs: list[SubsystemModel] = []
    index = 0
    while len(subs) < n:
        index += 1
        sub = random_subsystem(rng, index, 3, 2, lft_prob=0)
        if check_feasibility([sub]).feasible:
            subs.append(sub)
    return subs


def check_network(n: int, seed: int = 1) -> NdsModel:
    """n subsystems `random_subsystem(rng, i, 4, 3, 0.3)` from one generator,
    routed at density 6 / (2.5 n) by the same generator: the check and
    realize networks of the size table in ROADMAP.md (M_x = 73 at n = 32)."""
    rng = random.Random(seed)
    subs = [random_subsystem(rng, i + 1, 4, 3, 0.3) for i in range(n)]
    mv = sum(s.m_v0 for s in subs)
    mz = sum(s.m_z0 for s in subs)
    density = 6 / (2.5 * n)
    free = [(r, c) for r in range(mv) for c in range(mz) if rng.random() < density]
    return NdsModel(subs, StructuredPattern(mv, mz, {(r, c): f"phi_{r}_{c}" for r, c in free}))
