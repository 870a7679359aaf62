"""Deterministic random instance generation.

Each profile is a named family of desk-scale instances; the same seed
and parameters always produce the same instance. Sizes default to the
ranges the verification harness uses.
"""

from __future__ import annotations

import inspect
import random

from .core import Instance, Job, Resource
from .lspc import LspcInstance, ShortResource
from .mountains import Mountain, MountainRange

_LEAST = {"timeslots": 1, "max_w": 1, "mountains": 1}  # every other size may be 0


def _check_sizes(**sizes: int) -> None:
    """Raise ValueError naming the first size below its least value."""
    for name, value in sizes.items():
        least = _LEAST.get(name, 0)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _random_resources(rnd: random.Random, m: int, T: int, max_w: int, max_c: int) -> tuple[Resource, ...]:
    out = []
    for i in range(m):
        length = rnd.randint(1, T)
        s = rnd.randint(1, T - length + 1)
        out.append(Resource(i, s, s + length - 1, rnd.randint(1, max_w), rnd.randint(0, max_c)))
    return tuple(out)


def _with_k(rnd: random.Random, n: int, k: int | None) -> int:
    return rnd.randint(0, n) if k is None else k


def generate_uniform(seed: int, *, jobs: int = 6, resources: int = 5, timeslots: int = 10,
                     max_w: int = 3, max_c: int = 10, k: int | None = None,
                     penalties: bool = False) -> Instance:
    _check_sizes(jobs=jobs, resources=resources, timeslots=timeslots, max_w=max_w, max_c=max_c)
    if penalties and k is not None:
        raise ValueError("k and penalties exclude each other: a prize instance has no k")
    rnd = random.Random(f"uniform:{seed}")
    built = []
    for i in range(jobs):
        length = rnd.randint(1, timeslots)
        s = rnd.randint(1, timeslots - length + 1)
        p = rnd.randint(0, max_c) if penalties else None
        built.append(Job(i, s, s + length - 1, p))
    res = _random_resources(rnd, resources, timeslots, max_w, max_c)
    kk = None if penalties else _with_k(rnd, jobs, k)
    return Instance(timeslots, tuple(built), res, kk)


def generate_single_mountain(seed: int, *, jobs: int = 6, resources: int = 5,
                             timeslots: int = 10, max_w: int = 3, max_c: int = 10,
                             k: int | None = None) -> Instance:
    """All jobs span one random peak timeslot."""
    _check_sizes(jobs=jobs, resources=resources, timeslots=timeslots, max_w=max_w, max_c=max_c)
    rnd = random.Random(f"mountain:{seed}")
    peak = rnd.randint(1, timeslots)
    built = []
    for i in range(jobs):
        s = rnd.randint(max(1, peak - 4), peak)
        e = rnd.randint(peak, min(timeslots, peak + 4))
        built.append(Job(i, s, e))
    res = _random_resources(rnd, resources, timeslots, max_w, max_c)
    return Instance(timeslots, tuple(built), res, _with_k(rnd, jobs, k))


def generate_mountain_range(seed: int, *, mountains: int = 2, jobs: int = 6,
                            resources: int = 5, timeslots: int = 12, max_w: int = 3,
                            max_c: int = 10, k: int | None = None,
                            ) -> tuple[Instance, MountainRange]:
    """Jobs grouped into up to ``mountains`` disjoint windows, each group
    sharing the window's peak. Returns the instance and the range built
    from the groups (windows that received no job are dropped)."""
    _check_sizes(mountains=mountains, jobs=jobs, resources=resources, timeslots=timeslots,
                 max_w=max_w, max_c=max_c)
    if timeslots < 2 * mountains:
        raise ValueError("need at least two timeslots per mountain")
    rnd = random.Random(f"range:{seed}")
    width = timeslots // mountains
    windows = []
    for i in range(mountains):
        lo = i * width + 1
        hi = (i + 1) * width - 1  # one-slot gap keeps spans disjoint
        windows.append((lo, max(lo, hi)))
    built = []
    assigned: dict[int, list[int]] = {}
    peaks = [rnd.randint(lo, hi) for lo, hi in windows]
    for i in range(jobs):
        widx = rnd.randrange(mountains)
        lo, hi = windows[widx]
        peak = peaks[widx]
        s = rnd.randint(lo, peak)
        e = rnd.randint(peak, hi)
        built.append(Job(i, s, e))
        assigned.setdefault(widx, []).append(i)
    res = _random_resources(rnd, resources, timeslots, max_w, max_c)
    parts = []
    for widx in sorted(assigned):
        ids = assigned[widx]
        span = (min(built[i].s for i in ids), max(built[i].e for i in ids))
        parts.append(Mountain(peaks[widx], frozenset(ids), span))
    inst = Instance(timeslots, tuple(built), res, _with_k(rnd, jobs, k))
    return inst, MountainRange(tuple(parts))


def generate_lspc(seed: int, *, timeslots: int = 5, max_demand: int = 3,
                  shorts: int = 4, longs: int = 4, max_c: int = 10,
                  k: int | None = None) -> LspcInstance:
    _check_sizes(timeslots=timeslots, max_demand=max_demand, shorts=shorts, longs=longs,
                 max_c=max_c)
    rnd = random.Random(f"lspc:{seed}")
    d = tuple(rnd.randint(0, max_demand) for _ in range(timeslots))
    built_shorts = []
    for i in range(shorts):
        built_shorts.append(ShortResource(i, rnd.randint(1, timeslots),
                                          rnd.randint(1, max(1, max_demand)),
                                          rnd.randint(0, max_c)))
    built_longs = []
    for i in range(longs):
        length = rnd.randint(1, timeslots)
        s = rnd.randint(1, timeslots - length + 1)
        built_longs.append(Resource(i, s, s + length - 1,
                                    rnd.randint(1, max(1, max_demand)),
                                    rnd.randint(0, max_c)))
    kk = rnd.randint(0, sum(d)) if k is None else k
    return LspcInstance(timeslots, d, tuple(built_shorts), tuple(built_longs), kk)


_GENERATORS = {
    "single-mountain": generate_single_mountain,
    "mountain-range": generate_mountain_range,
    "uniform-random": generate_uniform,
    "lspc-random": generate_lspc,
}
PROFILES = tuple(_GENERATORS)


def generate(profile: str, seed: int, **params):
    """Dispatch by profile name; lspc-random yields an LspcInstance, the
    rest yield Instances. A parameter the generator lacks is a ValueError."""
    if profile not in _GENERATORS:
        raise ValueError(f"unknown profile {profile!r}; choose from {', '.join(PROFILES)}")
    fn = _GENERATORS[profile]
    unknown = sorted(set(params) - set(inspect.signature(fn).parameters))
    if unknown:
        raise ValueError(f"profile {profile} takes no {', '.join(unknown)}")
    inst = fn(seed, **params)
    return inst[0] if profile == "mountain-range" else inst
