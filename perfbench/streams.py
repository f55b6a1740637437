"""Seeded request streams for the benchmark workloads.

A run sends one *lap* of requests again and again.  A lap has a fixed
composition (the same kinds of request in the same numbers for every
seed); the seed only chooses the cost-neutral draws, such as the
sample-noise seed, the GPU or the stream count, and the lap number only
the order.  Two runs of one workload therefore time the same mix.

The order changes from lap to lap because a request's time depends on
what ran just before it: the same disk hit took 0.5 ms at one place in
a cached-sweep lap and 1.0 ms at another.

Every request is built through the public ``Workload.make_request``; the
program sees nothing but the generated requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.harness.paper_data import (
    TABLE2_STENCIL_NCU,
    TABLE3_BABELSTREAM_NCU,
    TABLE4_HARTREE_FOCK_MS,
)
from repro.workloads import RunRequest, get_workload

#: the vendor baseline each paper platform is compared against
VENDOR = {"h100": "cuda", "mi300a": "hip"}

PRECISIONS = ("float32", "float64")

#: Table 4 systems, (natoms, ngauss)
HF_SYSTEMS = tuple(TABLE4_HARTREE_FOCK_MS)

@dataclass(frozen=True)
class Item:
    """One request of a stream, with what the client knows about it.

    ``kind`` is ``"verify"`` (verify-sweep), or for cached-sweep ``"miss"``, ``"repeat"``, ``"search"`` (a tuned
    problem's first sighting) and ``"tuned"``; ``config`` names the
    executor-independent configuration (verify-sweep pairs each config's
    ``auto`` and ``lowered`` runs).
    """

    kind: str
    request: RunRequest
    config: Optional[int] = None


def _rng(seed: int, index) -> random.Random:
    return random.Random(f"{seed}/{index}")


def _request(workload: str, **kwargs) -> RunRequest:
    return get_workload(workload).make_request(**kwargs)


def _balanced(rng: random.Random, values, count: int) -> list:
    """*count* draws that use each of *values* equally often, seeded order."""
    draws = [values[i % len(values)] for i in range(count)]
    rng.shuffle(draws)
    return draws


def _draws(rng: random.Random, count: int, **axes) -> List[dict]:
    """*count* request-field dicts, each axis a balanced draw."""
    columns = {name: _balanced(rng, values, count)
               for name, values in axes.items()}
    return [{name: column[i] for name, column in columns.items()}
            for i in range(count)]


# ---------------------------------------------------------------- paper cells
def paper_cell_requests() -> List[RunRequest]:
    """The requests behind every printed paper kernel duration.

    Each Hartree-Fock cell of Table 4 (1024x6 included), each Table 2
    stencil at its printed edge and grid, and the Table 3 BabelStream
    (2^25 FP64), under Mojo and the vendor backend, verification off.
    """
    requests = []
    for natoms, ngauss in HF_SYSTEMS:
        for gpu in VENDOR:
            for backend in ("mojo", VENDOR[gpu]):
                requests.append(_request(
                    "hartreefock", gpu=gpu, backend=backend, verify=False,
                    params={"natoms": natoms, "ngauss": ngauss}))
    for (precision, backend), paper in TABLE2_STENCIL_NCU.items():
        requests.append(_request(
            "stencil", gpu="h100", backend=backend, precision=precision,
            verify=False, params={"L": paper["L"],
                                  "block_shape": tuple(paper["grid"])}))
    for backend in ("mojo", VENDOR["h100"]):
        requests.append(_request(
            "babelstream", gpu="h100", backend=backend, precision="float64",
            verify=False, params={"n": 2 ** 25}))
    return requests


def paper_cells(result) -> List[Tuple[str, float, float]]:
    """``(cell, modelled_ms, paper_ms)`` for each printed duration *result* covers.

    Table 2 (stencil, H100), Table 3 (BabelStream per operation, H100,
    2^25 FP64) and the non-``None`` cells of Table 4 (Hartree-Fock).
    """
    req = result.request
    p = req.params
    cells = []
    if req.workload == "hartreefock":
        paper = TABLE4_HARTREE_FOCK_MS.get((p["natoms"], p["ngauss"]), {})
        value = paper.get((req.gpu, req.backend))
        if value is not None:
            cells.append((f"table4/{p['natoms']}x{p['ngauss']}/{req.gpu}/"
                          f"{req.backend}", result.metrics["kernel_time_ms"],
                          value))
    elif req.workload == "stencil" and req.gpu == "h100":
        paper = TABLE2_STENCIL_NCU.get((req.precision, req.backend))
        if paper is not None and paper["L"] == p["L"] \
                and tuple(paper["grid"]) == tuple(p["block_shape"]):
            cells.append((f"table2/{req.precision}/{req.backend}",
                          result.metrics["kernel_time_ms"],
                          paper["duration_ms"]))
    elif req.workload == "babelstream" and req.gpu == "h100" \
            and req.precision == "float64" and p["n"] == 2 ** 25:
        for (op, backend), paper in TABLE3_BABELSTREAM_NCU.items():
            if backend == req.backend:
                cells.append((f"table3/{op}/{backend}",
                              result.timing[op].kernel_time_ms,
                              paper["duration_ms"]))
    return cells


#: how many printed paper durations ``paper_cells`` finds over
#: :func:`paper_cell_requests`
PAPER_CELL_COUNT = 27


# ------------------------------------------------------------- verify-sweep
#: rounds of the configuration set per verify-sweep lap; two rounds
#: give 144 requests, so each lap has more than ten beyond its p90
VERIFY_ROUNDS = 2


def _verify_configs(rng: random.Random) -> List[Tuple[str, dict]]:
    """One round of verify-sweep configurations: ``(workload, fields)``.

    The values that set a request's cost (stencil edge, BabelStream block
    size, miniBUDE verification poses and work-group size, Hartree-Fock
    verification atoms) come from fixed lists; GPUs, stream counts and
    precisions are balanced draws per kernel; the noise and deck seeds make
    every stencil, BabelStream and miniBUDE request of a lap distinct.
    """
    lanes = {"gpu": tuple(VENDOR), "streams": (1, 2, 3, 4)}
    configs = []
    edges = (8, 12, 16, 20, 24, 28, 32, 34)
    for L, fields in zip(edges, _draws(rng, len(edges), **lanes,
                                       precision=PRECISIONS)):
        configs.append(("stencil", dict(fields, params={
            "L": L, "seed": rng.randrange(1 << 30)})))
    shapes = [(tb_size, precision)
              for tb_size in (32, 64, 128, 256, 512, 1024)
              for precision in PRECISIONS]
    for (tb_size, precision), fields in zip(shapes,
                                            _draws(rng, len(shapes), **lanes)):
        configs.append(("babelstream", dict(fields, precision=precision,
                                            params={
            "n": 1 << 12, "tb_size": tb_size,
            "seed": rng.randrange(1 << 30)})))
    shapes = [(poses, wgsize) for poses in (16, 32, 64, 128)
              for wgsize in (4, 8)]
    for (poses, wgsize), fields in zip(shapes, _draws(rng, len(shapes),
                                                      **lanes, ppwi=(1, 2))):
        ppwi = fields.pop("ppwi")
        configs.append(("minibude", dict(fields, params={
            "verify_poses": poses, "wgsize": wgsize, "ppwi": ppwi,
            "seed": rng.randrange(1 << 30)})))
    # Hartree-Fock requests have no noise seed; each (natoms,
    # verify_natoms) pair appears once per round, at the default spacing,
    # which sets how much Schwarz screening prunes
    shapes = tuple(zip((3, 3, 4, 4, 5, 5, 6, 6), range(4, 12)))
    for (verify_natoms, natoms), fields in zip(shapes, _draws(
            rng, len(shapes), **lanes)):
        configs.append(("hartreefock", dict(fields, params={
            "verify_natoms": verify_natoms, "natoms": natoms})))
    return configs


def verify_sweep_lap(seed: int, lap: int) -> List[Item]:
    """Small distinct configurations, each run with ``auto`` and ``lowered``."""
    rng = _rng(seed, "configs")
    configs = [config for _ in range(VERIFY_ROUNDS)
               for config in _verify_configs(rng)]
    items = []
    for number, (workload, kwargs) in enumerate(configs):
        for executor in ("auto", "lowered"):
            items.append(Item("verify",
                              _request(workload, executor=executor, **kwargs),
                              config=number))
    _rng(seed, f"lap-{lap}").shuffle(items)
    return items


# ------------------------------------------------------------- cached-sweep
# A cached-sweep lap replays a session of CLI invocations against one
# result store and one tuning database.  Each ``repro bench`` invocation
# is a new process with a fresh ``ResultCache`` over the disk store, so a
# request is either a miss that runs and stores or a disk hit; a
# ``repro sweep --param tune=search`` point searches a problem the
# database lacks; a later ``repro bench --tuned`` reads the winner.  The
# shares below are assumed, not traced from a deployment: repeats are a
# little over half the stream, so the median measures the hit path.
#: per lap: distinct untuned requests (each a miss on first sight) ...
CACHED_NEW = 48
#: ... each repeated this many times once stored (disk hits) ...
CACHED_REPEATS_EACH = 2
#: ... and tuned requests: this many problems, each seen this many times
TUNED_PROBLEMS = 4
TUNED_SIGHTINGS = 5


def _cached_pool(rng: random.Random) -> List[RunRequest]:
    gpus = _balanced(rng, tuple(VENDOR), CACHED_NEW)
    pool = []
    for L in (12, 16, 20, 24, 28, 32):
        for precision in PRECISIONS:
            pool.append(_request(
                "stencil", gpu=gpus.pop(), precision=precision,
                params={"L": L, "seed": rng.randrange(1 << 30)}))
    for tb_size in (32, 64, 128, 256, 512, 1024):
        for precision in PRECISIONS:
            pool.append(_request(
                "babelstream", gpu=gpus.pop(), precision=precision,
                params={"n": 1 << 16, "tb_size": tb_size,
                        "seed": rng.randrange(1 << 30)}))
    for verify_poses in (16, 32, 64):
        for wgsize in (4, 8, 64, 128):
            pool.append(_request(
                "minibude", gpu=gpus.pop(),
                params={"verify_poses": verify_poses, "wgsize": wgsize,
                        "seed": rng.randrange(1 << 30)}))
    for natoms in (6, 8, 10, 12, 14, 16):
        for verify_natoms in (3, 4):
            # the default spacing: spacing sets how much Schwarz
            # screening prunes, so a drawn one would move the cost
            pool.append(_request(
                "hartreefock", gpu=gpus.pop(),
                params={"natoms": natoms, "verify_natoms": verify_natoms}))
    rng.shuffle(pool)
    return pool


def _tuned_problems(rng: random.Random) -> List[RunRequest]:
    gpus = _balanced(rng, tuple(VENDOR), TUNED_PROBLEMS)
    return [
        _request("stencil", gpu=gpus[0], params={"L": 64}),
        _request("babelstream", gpu=gpus[1], params={"n": 1 << 16}),
        _request("minibude", gpu=gpus[2], params={"ppwi": 4}),
        _request("hartreefock", gpu=gpus[3], params={"natoms": 16}),
    ]


def cached_sweep_lap(seed: int, lap: int) -> List[Item]:
    """Misses, disk-hit repeats and tuned requests, against empty stores.

    The kinds are drawn in a seeded order weighted by how many of each are
    left; a repeat picks uniformly among the stored requests with repeats
    left, so every pool request is hit the same number of times and the
    hits have the same mix for every seed.  The first sighting of a tuned
    problem searches (``tune="search"``), later ones read the database
    (``tune="cached"``).  Each *lap* is another session order over the
    same requests, so misses still come before their repeats and a search
    before its database reads.
    """
    rng = _rng(seed, "pool")
    pool = _cached_pool(rng)
    tuned = _tuned_problems(rng)
    rng = _rng(seed, f"lap-{lap}")
    remaining = {"miss": CACHED_NEW,
                 "repeat": CACHED_NEW * CACHED_REPEATS_EACH,
                 "tune": TUNED_PROBLEMS * TUNED_SIGHTINGS}
    tune_order = _balanced(rng, tuple(range(TUNED_PROBLEMS)),
                           remaining["tune"])
    #: stored requests with repeats left, and how many
    repeats_left = {}
    seen_tuned = set()
    items: List[Item] = []
    while any(remaining.values()):
        kinds = [k for k, n in remaining.items()
                 if n and (k != "repeat" or repeats_left)]
        kind = rng.choices(kinds, weights=[remaining[k] for k in kinds])[0]
        remaining[kind] -= 1
        if kind == "miss":
            request = pool[CACHED_NEW - remaining["miss"] - 1]
            repeats_left[request] = CACHED_REPEATS_EACH
            items.append(Item("miss", request))
        elif kind == "repeat":
            request = rng.choice(list(repeats_left))
            repeats_left[request] -= 1
            if not repeats_left[request]:
                del repeats_left[request]
            items.append(Item("repeat", request))
        else:
            problem = tune_order.pop()
            if problem in seen_tuned:
                items.append(Item("tuned",
                                  tuned[problem].replace(tune="cached")))
            else:
                seen_tuned.add(problem)
                items.append(Item("search",
                                  tuned[problem].replace(tune="search")))
    return items


LAPS = {
    "verify-sweep": verify_sweep_lap,
    "cached-sweep": cached_sweep_lap,
}


def lap_items(workload: str, seed: int, lap: int) -> List[Item]:
    """The requests of *workload*'s lap, in the order lap *lap* sends them."""
    return LAPS[workload](seed, lap)
