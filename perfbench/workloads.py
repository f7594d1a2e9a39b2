"""Workload definitions and the input generators the benchmark owns.

Every input the program sees is made from a seed: the city catalog here,
the world, corpus and snapshot by the ``traceloc synth`` CLI, and the
Atlas export and the clutter databases by the converters below.  The
converters only read synth's files, so all of traceloc's own output stays
the program's business.
"""
from __future__ import annotations

import csv
import hashlib
import ipaddress
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

KM_PER_DEG_LAT = 6371.0 * math.pi / 180.0

# The city catalog is part of every workload's shape, so it has its own
# fixed seed: each --seed then draws a new campaign (router labels, paths,
# database errors) over the same geography, which keeps the amount of work
# per run steady from seed to seed.
CATALOG_CITIES = 100
CATALOG_SEED = 1
# The seed whose inputs and answers expected.json pins.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ``synth.*`` keys passed to ``traceloc synth``; everything else keeps
    # the program's defaults.
    synth: dict = field(default_factory=dict)
    fmt: str = "native"  # "native", "atlas" or "clutter"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense",
            why="each interface is seen in over a hundred paths, so per-hop work dominates: "
            "extract_pairs, summarize, sol_baseline and native ingest",
            synth={"n_routers": 500, "n_cities": 100, "n_paths": 4000, "decoy_fraction": 0.2},
        ),
        Workload(
            name="atlas",
            why="a RIPE Atlas export with timeouts, bogons and damaged records, so Atlas "
            "parsing, normalisation and whole-file reading dominate time and memory",
            synth={"n_routers": 300, "n_cities": 100, "n_paths": 2500, "decoy_fraction": 0.2},
            fmt="atlas",
        ),
        Workload(
            name="cluttered",
            why="few paths per IP and 4 extra disagreeing databases: 4.6x the candidates per IP "
            "of dense; candidate-bound stages are about a fifth of traced time on the seed code, "
            "more once per-hop ip_key work is cut",
            synth={"n_routers": 600, "n_cities": 100, "n_paths": 2000, "decoy_fraction": 0.5},
            fmt="clutter",
        ),
    )
}

# --- city catalog -------------------------------------------------------------


def write_hubring_catalog(path: Path, n_cities: int, seed: int) -> Path:
    """A hub-and-spokes catalog of ``n_cities`` cities.

    One hub cluster, six spoke clusters on a ring about 1,600 km out and one
    single-city island country on each spoke.  Each cluster is a 13 km disc,
    so databases that disagree by a few km stay in one cluster while a
    displacement lands in another.  The seed turns the ring and spreads the
    spokes; the layout stays the same shape.
    """
    spoke = (n_cities - 4) // 7
    hub = n_cities - 6 - 6 * spoke
    if spoke < 2 or hub < 2:
        raise ValueError(f"hub-ring catalog needs at least 25 cities, got {n_cities}")
    rng = random.Random(f"catalog:{seed}")
    rows: list[str] = []

    def add(name: str, cc: str, x: float, y: float) -> None:
        lat = y / KM_PER_DEG_LAT
        lon = x / (KM_PER_DEG_LAT * math.cos(math.radians(lat)))
        rows.append(f"{name},{cc},{round(lat, 6)},{round(lon, 6)}")

    def cluster(cx: float, cy: float, n: int, cc: str) -> None:
        add(f"{cc.lower()}-00", cc, cx, cy)
        for i in range(n - 1):
            a = 2 * math.pi * i / (n - 1)
            add(f"{cc.lower()}-{i + 1:02d}", cc, cx + 13.0 * math.cos(a), cy + 13.0 * math.sin(a))

    cluster(0.0, 0.0, hub, "XC")
    turn = rng.uniform(0.0, 60.0)
    spokes = zip(["XA", "XB", "XD", "XE", "XF", "XG"], ["IA", "IB", "IC", "ID", "IE", "IF"])
    for k, (cc, island) in enumerate(spokes):
        th = math.radians(turn + 60 * k + rng.uniform(-5.0, 5.0))
        gap = rng.uniform(1500.0, 1700.0)
        cluster(gap * math.cos(th), gap * math.sin(th), spoke, cc)
        f = rng.uniform(0.35, 0.45)
        add(f"{island.lower()}-0", island, f * gap * math.cos(th), f * gap * math.sin(th))
    path.write_text("name,country,lat,lon\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def read_catalog(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- configs ------------------------------------------------------------------


def synth_config(w: Workload, seed: int, catalog: Path, out_dir: Path) -> str:
    lines = [f"city_catalog = {catalog}", f"out_dir = {out_dir}", f"seed = {seed}"]
    lines += [f"synth.{k} = {v}" for k, v in sorted(w.synth.items())]
    return "\n".join(lines) + "\n"


def run_config(traceroutes: Path, snapshot: Path, catalog: Path, out_dir: Path) -> str:
    return (
        f"traceroutes = {traceroutes}\ngeo_snapshot = {snapshot}\n"
        f"city_catalog = {catalog}\nout_dir = {out_dir}\n"
    )


# --- Atlas exporter -----------------------------------------------------------

ATLAS_REPLIES = 3
ATLAS_TIMEOUT_P = 0.05  # per reply; a hop always keeps one answered reply
ATLAS_BOGON_P = 0.02  # per hop, an extra bogon hop is inserted before it
ATLAS_DAMAGE_P = 0.005  # per record, for each of malformed, looping, single-hop
_BOGON_PREFIXES = ("10.{}.{}.1", "192.168.{}.{}", "100.64.{}.{}", "172.16.{}.{}")


@dataclass
class AtlasExport:
    malformed: int = 0
    looping: int = 0
    short: int = 0
    # line number (1-based) -> source path's IP sequence, for records left
    # undamaged; these must normalise back to exactly that sequence.
    undamaged: dict[int, list[str]] = field(default_factory=dict)


def export_atlas(native_file: Path, out_file: Path, seed: int) -> AtlasExport:
    """Rewrite a native corpus as a RIPE Atlas traceroute export.

    Each hop gets ``ATLAS_REPLIES`` replies with jittered RTTs; replies time
    out, bogon hops appear and records are damaged at the rates above.
    Only IPv4 responders are emitted.
    """
    rng = random.Random(f"atlas:{seed}")
    info = AtlasExport()
    with native_file.open(encoding="utf-8") as src, out_file.open("w", encoding="utf-8") as out:
        for i, line in enumerate(src):
            doc = json.loads(line)
            hops = [(h["ip"], float(h["rtt"])) for h in doc["hops"]]
            damage = rng.random()
            if damage < ATLAS_DAMAGE_P:
                kind = "looping"
                hops = hops + [hops[0]]
            elif damage < 2 * ATLAS_DAMAGE_P:
                kind = "short"
                hops = hops[:1]
            elif damage < 3 * ATLAS_DAMAGE_P:
                kind = "malformed"
            else:
                kind = None
            result = []
            for ip, rtt in hops:
                if rng.random() < ATLAS_BOGON_P:
                    bogon = rng.choice(_BOGON_PREFIXES).format(rng.randrange(256), rng.randrange(1, 255))
                    result.append(_atlas_hop(rng, len(result) + 1, bogon, rtt))
                result.append(_atlas_hop(rng, len(result) + 1, ip, rtt))
            record = {
                "af": 4,
                "type": "traceroute",
                "msm_id": 5000 + i % 17,
                "prb_id": 10_000 + i,
                "timestamp": 1_700_000_000 + 60 * i,
                "dst_addr": hops[-1][0],
                "result": result,
            }
            text = json.dumps(record, separators=(",", ":"))
            if kind == "malformed":
                # Alternate the two ways a record breaks: cut-off JSON, and
                # valid JSON missing a required key.
                if info.malformed % 2 == 0:
                    text = text[: len(text) // 2]
                else:
                    del record["prb_id"]
                    text = json.dumps(record, separators=(",", ":"))
                info.malformed += 1
            elif kind == "looping":
                info.looping += 1
            elif kind == "short":
                info.short += 1
            else:
                info.undamaged[i + 1] = [ip for ip, _ in hops]
            out.write(text + "\n")
    return info


def _atlas_hop(rng: random.Random, hop_no: int, ip: str, rtt: float) -> dict:
    replies: list[dict] = []
    timeouts = 0
    for _ in range(ATLAS_REPLIES):
        if timeouts < ATLAS_REPLIES - 1 and rng.random() < ATLAS_TIMEOUT_P:
            replies.append({"x": "*"})
            timeouts += 1
        else:
            jitter = 1.0 + rng.uniform(-0.01, 0.01)
            replies.append({"from": ip, "rtt": round(rtt * jitter, 3), "size": 68, "ttl": 255 - hop_no})
    return {"hop": hop_no, "result": replies}


# --- clutter augmenter --------------------------------------------------------

CLUTTER_EXTRA_DBS = 4
SNAPSHOT_HEADER = ["ip", "source", "lat", "lon", "city", "country"]


def add_clutter(snapshot_in: Path, catalog: list[dict], snapshot_out: Path, seed: int) -> int:
    """Add ``CLUTTER_EXTRA_DBS`` single-source databases per IP, each naming
    a different catalog city that none of the IP's rows names yet.  Returns
    the number of rows added."""
    rng = random.Random(f"clutter:{seed}")
    by_ip: dict[str, list[list[str]]] = {}
    with snapshot_in.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != SNAPSHOT_HEADER:
            raise ValueError(f"{snapshot_in}: unexpected snapshot header")
        for row in reader:
            by_ip.setdefault(row[0], []).append(row)
    added = 0
    for ip in by_ip:
        named = {row[4].strip().lower() for row in by_ip[ip]}
        choices = [c for c in catalog if c["name"].strip().lower() not in named]
        for k, city in enumerate(rng.sample(choices, CLUTTER_EXTRA_DBS), start=1):
            by_ip[ip].append([ip, f"extra{k}", city["lat"], city["lon"], city["name"], city["country"]])
            added += 1
    with snapshot_out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SNAPSHOT_HEADER)
        for ip in sorted(by_ip, key=lambda a: int(ipaddress.IPv4Address(a))):
            writer.writerows(sorted(by_ip[ip], key=lambda r: r[1]))
    return added


# --- digests ------------------------------------------------------------------


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_sha256(root: Path) -> str:
    """One digest over every file name and content below ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(file_sha256(path).encode() + b"\n")
    return h.hexdigest()
