"""Host speed, measured between the timed processes.

On a host shared with other tenants, the CPU the benchmark runs on slows
down by up to 2x for stretches of seconds to minutes.  A median over one
invocation cannot hide a stretch that lasts the whole invocation, so the
timings are scaled instead: the benchmark pins itself and its children to
one CPU and times a fixed pure-Python loop before and after every timed
process.  A process's wall time times ``REFERENCE_S`` over the mean of the
two loops around it is its time at the speed where the loop takes
``REFERENCE_S``.

The loop is the benchmark's own code and does the kind of work traceloc
does per hop: JSON decoding, IPv4 parsing, dict counting, trigonometry and
a sort.  A change to traceloc does not change it.
"""
from __future__ import annotations

import ipaddress
import json
import math
import os
import random
import time

REFERENCE_S = 0.5
LINES = 10_000  # about REFERENCE_S on an unloaded 2-vCPU Xeon VM


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU, so the
    loop and the timed process share the CPU's speed."""
    if hasattr(os, "sched_setaffinity"):  # Linux only
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _corpus(n: int) -> list[str]:
    rng = random.Random("hostspeed")
    lines = []
    for i in range(n):
        hops = [{"ip": f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                 "rtt": round(rng.uniform(1.0, 200.0), 3)} for _ in range(8)]
        lines.append(json.dumps({"id": i, "hops": hops}))
    return lines


class Loop:
    """The calibration loop over a fixed corpus of ``LINES`` records."""

    def __init__(self) -> None:
        self.corpus = _corpus(LINES)

    def _work(self) -> int:
        seen: dict[int, int] = {}
        arc = 0.0
        for line in self.corpus:
            prev = None
            for hop in json.loads(line)["hops"]:
                key = int(ipaddress.IPv4Address(hop["ip"]))
                seen[key] = seen.get(key, 0) + 1
                if prev is not None:
                    a, b = math.radians(prev % 90), math.radians(key % 90)
                    arc += math.acos(min(1.0, math.sin(a) * math.sin(b) + math.cos(a) * math.cos(b)))
                prev = key
        return len(sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))) + int(arc)

    def time(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def scaled(walls: list[float], loops: list[float]) -> list[float]:
    """Scale each wall time by the loops timed just before and just after it:
    ``loops`` has one more entry than ``walls``."""
    assert len(loops) == len(walls) + 1
    return [w * REFERENCE_S / ((loops[k] + loops[k + 1]) / 2) for k, w in enumerate(walls)]
