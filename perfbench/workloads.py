"""The benchmark's cell pools and the seeded inputs of each workload.

Every input a run sends to the program is generated here from the
``--seed``; the same seed always yields the same inputs.  Pools are
spelled out instead of imported so that ``run.py`` never needs the
program to build its inputs.
"""

from __future__ import annotations

import random

#: Fig. 4.3 schemes, no-limit baseline first (the paper grid's policies).
FIG43_POLICIES = (
    "no-limit", "ts", "bw", "acg", "cdvfs", "bw+pid", "acg+pid", "cdvfs+pid",
)
#: Every Chapter 4 policy a single simulate cell accepts.
CH4_POLICIES = FIG43_POLICIES + ("comb",)
CH4_MIXES = ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")
GRID_MIXES = ("W1", "W2", "W3", "W4")
COOLING = "AOHS_1.5"
#: Cold job pool of ``service_mix``: disjoint from its warm working set.
JOB_MIXES = ("W5", "W6", "W7", "W8")
JOB_COOLINGS = ("AOHS_1.5", "FDHS_1.0")
#: Warm working set of ``service_mix`` is drawn from these cells.
WARM_MIXES = ("W1", "W2", "W3", "W4")
WARM_SET_SIZE = 8

CH5_PLATFORMS = ("PE1950", "SR1500AL")
CH5_MIXES = ("W1", "W2", "W11", "W12")
CH5_POLICIES = ("no-limit", "bw", "acg", "cdvfs", "comb")

#: Every cell is run with one copy of each benchmark program.
COPIES = 1


def sim_cell(mix: str, policy: str, cooling: str = COOLING) -> dict:
    """A Chapter 4 ``simulate`` request body."""
    return {"mix": mix, "policy": policy, "cooling": cooling, "copies": COPIES}


def server_cell(platform: str, mix: str, policy: str) -> dict:
    """A Chapter 5 ``server`` request body."""
    return {"platform": platform, "mix": mix, "policy": policy, "copies": COPIES}


def cell_id(kind: str, body: dict) -> str:
    """The key of a cell in the committed digest table."""
    if kind == "sim":
        return f"sim:{body['mix']}:{body['policy']}:{body['cooling']}"
    if kind == "srv":
        return f"srv:{body['platform']}:{body['mix']}:{body['policy']}"
    if kind == "grid":
        return f"grid:{body['mix']}:{body['policy']}"
    raise ValueError(f"unknown cell kind {kind!r}")


def all_cells() -> list[tuple[str, dict]]:
    """Every (kind, body) any workload can send, for the digest table."""
    cells = [("sim", sim_cell(m, p)) for m in CH4_MIXES for p in CH4_POLICIES]
    cells += [
        ("sim", sim_cell(m, p, c))
        for c in JOB_COOLINGS if c != COOLING
        for m in JOB_MIXES for p in CH4_POLICIES
    ]
    cells += [
        ("srv", server_cell(pl, m, p))
        for pl in CH5_PLATFORMS for m in CH5_MIXES for p in CH5_POLICIES
    ]
    cells += [
        ("grid", {"mix": m, "policy": p})
        for m in GRID_MIXES for p in FIG43_POLICIES
    ]
    return cells


# -- per-workload inputs ------------------------------------------------------


def _rotation(rng: random.Random, rows: list, rounds: int) -> list[tuple]:
    """``rounds`` rounds of (row, policy), every row once per round.

    Policies rotate through a seeded order, so a row never repeats a
    policy, each round uses ``len(rows)`` distinct policies, and every
    run weighs rows and policies alike; the seed picks the pairing and
    the order.
    """
    if not 1 <= rounds <= len(CH4_POLICIES):
        raise ValueError(f"rounds must be 1..{len(CH4_POLICIES)}")
    policies = rng.sample(CH4_POLICIES, len(CH4_POLICIES))
    rows = rng.sample(rows, len(rows))
    cells = []
    for index in range(rounds):
        block = [(row, policies[(j - index) % len(policies)])
                 for j, row in enumerate(rows)]
        cells.extend(rng.sample(block, len(block)))
    return cells


def paper_grid_inputs(seed: int, grids: int) -> list[dict]:
    """``grids`` cold Fig. 4.3 grids, each with seeded cell order.

    The cells are always W1-W4 x the 8 Fig. 4.3 policies.  The seed
    orders the mixes within the paper-order pairs (W1, W2) and (W3, W4),
    and the policies after the no-limit baseline, which stays first as
    in the figure.  Gangs take cells in sweep order, so the pairs fix
    which mixes share a gang (that moves a grid's host time by ~15%).
    The planner moves the thermally insensitive no-limit cells to the
    last gang, so with the baseline first no cell is delivered before
    that gang ends; a baseline further back would let a seeded number
    of cells arrive half a grid earlier.
    """
    rng = random.Random(f"paper_grid:{seed}")
    inputs = []
    for _ in range(grids):
        first, second = list(GRID_MIXES[:2]), list(GRID_MIXES[2:])
        rng.shuffle(first)
        rng.shuffle(second)
        policies = list(FIG43_POLICIES[1:])
        rng.shuffle(policies)
        inputs.append({"mixes": first + second,
                       "policies": [FIG43_POLICIES[0]] + policies})
    return inputs


def solo_cells_inputs(seed: int, rounds: int) -> list[tuple[str, dict]]:
    """A closed-loop sequence alternating Chapter 4 and Chapter 5 cells.

    Cells are distinct, so every call is cold.  Each round holds every
    Chapter 4 mix once (a cell's cost depends mostly on its mix).
    """
    rng = random.Random(f"solo_cells:{seed}")
    ch4 = [sim_cell(mix, policy)
           for mix, policy in _rotation(rng, list(CH4_MIXES), rounds)]
    ch5_pool = [
        server_cell(pl, m, p)
        for pl in CH5_PLATFORMS for m in CH5_MIXES for p in CH5_POLICIES
    ]
    ch5 = rng.sample(ch5_pool, min(len(ch4), len(ch5_pool)))
    sequence: list[tuple[str, dict]] = []
    for index, body in enumerate(ch4):
        sequence.append(("sim", body))
        if index < len(ch5):
            sequence.append(("srv", ch5[index]))
    return sequence


def service_mix_inputs(seed: int, blocks: int, warm_size: int = WARM_SET_SIZE) -> dict:
    """The warm working set, the read sequence and the cold job order.

    Jobs come in blocks that hold every (mix, cooling) pair of the job
    pool once, so each run weighs them alike.
    """
    rng = random.Random(f"service_mix:{seed}")
    warm_pool = [sim_cell(m, p) for m in WARM_MIXES for p in CH4_POLICIES]
    warm = rng.sample(warm_pool, warm_size)
    pairs = [(m, c) for m in JOB_MIXES for c in JOB_COOLINGS]
    jobs = [sim_cell(mix, policy, cooling)
            for (mix, cooling), policy in _rotation(rng, pairs, blocks)]
    return {
        "warm": warm,
        "reads": [rng.randrange(warm_size) for _ in range(4096)],
        "jobs": jobs,
    }
