"""Metamorphic relations: input changes that must leave `traceloc run`'s
output tree as it was, or change it only by the same rewrite.

The determinism gate re-runs the same input, so it cannot catch an output
that depends on something it should not, such as row order.  Each relation
here runs the acceptance world (the corpus of ``tests/test_acceptance.py``,
written by ``traceloc synth``) once transformed and byte-compares the tree
with the untransformed run's.
"""
from __future__ import annotations

import functools
import ipaddress
import random
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from traceloc.cli import main
from tests.test_acceptance import write_hubring_catalog

IPV4 = re.compile(r"\b\d{1,3}(?:\.\d{1,3}){3}\b")


def write_config(path: Path, settings: dict[str, object]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    return path


def run_tree(root: Path, name: str, traceroutes: Path, snapshot: Path, catalog: Path,
             **settings: object) -> dict:
    """Run the pipeline into ``root / name``, under the config ``settings``
    besides the input paths, and return its files' bytes."""
    out_dir = root / name
    cfg = write_config(root / f"{name}.conf", {
        "traceroutes": traceroutes,
        "geo_snapshot": snapshot,
        "city_catalog": catalog,
        "out_dir": out_dir,
        **settings,
    })
    assert main(["run", "--config", str(cfg)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.fixture(scope="module")
def acceptance(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    catalog = write_hubring_catalog(root / "cities.csv")
    synth_dir = root / "synth"
    cfg = write_config(root / "synth.conf", {
        "city_catalog": catalog,
        "out_dir": synth_dir,
        "seed": 41,
        "synth.n_routers": 200,
        "synth.n_cities": 200,
        "synth.mpls_fraction": 0.03,
        "synth.tunnel_len": 3,
        "synth.n_paths": 5000,
        "synth.noise_fraction": 0.05,
        "synth.interface_error_fraction": 0.05,
        "synth.min_displacement_km": 500,
        "synth.db_count": 8,
        "synth.db_noise_km": 3,
    })
    assert main(["synth", "--config", str(cfg)]) == 0
    traceroutes, snapshot = synth_dir / "traceroutes.jsonl", synth_dir / "snapshot.csv"
    return SimpleNamespace(
        root=root,
        catalog=catalog,
        traceroutes=traceroutes,
        snapshot=snapshot,
        tree=run_tree(root, "base", traceroutes, snapshot, catalog),
    )


def shuffled_lines(src: Path, dst: Path, keep_header: bool, seed: int) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    head, body = (lines[:1], lines[1:]) if keep_header else ([], lines)
    random.Random(seed).shuffle(body)
    dst.write_text("".join(head + body), encoding="utf-8")
    return dst


def test_traceroute_lines_shuffled(acceptance):
    a = acceptance
    traceroutes = shuffled_lines(a.traceroutes, a.root / "shuffled.jsonl", False, 1)
    assert run_tree(a.root, "lines", traceroutes, a.snapshot, a.catalog) == a.tree


def test_snapshot_rows_shuffled(acceptance):
    a = acceptance
    snapshot = shuffled_lines(a.snapshot, a.root / "shuffled.csv", True, 2)
    assert run_tree(a.root, "rows", a.traceroutes, snapshot, a.catalog) == a.tree


def relabel(text: str, address_map: Callable[[str], str]) -> str:
    """``text`` with every IPv4 address literal rewritten by ``address_map``."""
    mapped = functools.cache(address_map)
    return IPV4.sub(lambda m: mapped(m.group()), text)


def next_slash8(ip: str) -> str:
    return str(ipaddress.IPv4Address(ip) + 2**24)


@pytest.mark.parametrize("address_map", [next_slash8], ids=["203.0.x.y-to-204.0.x.y"])
def test_order_preserving_relabel(acceptance, address_map):
    a = acceptance
    ips = sorted({m.group() for m in IPV4.finditer(a.snapshot.read_text(encoding="utf-8"))},
                 key=ipaddress.ip_address)
    assert sorted(map(address_map, ips), key=ipaddress.ip_address) == list(map(address_map, ips))

    def relabeled(src: Path) -> Path:
        dst = a.root / f"relabel{src.suffix}"
        dst.write_text(relabel(src.read_text(encoding="utf-8"), address_map), encoding="utf-8")
        return dst

    tree = run_tree(a.root, "relabel", relabeled(a.traceroutes), relabeled(a.snapshot), a.catalog)
    expected = {
        name: relabel(data.decode("utf-8"), address_map).encode("utf-8")
        for name, data in a.tree.items()
    }
    assert expected != a.tree
    assert tree == expected


def test_corpus_written_twice(acceptance):
    """Each traceroute twice, with twice the default ``min_observations``,
    leaves every output but ``summary.csv`` as it was, and doubles only
    that file's traceroute counts, not their shares."""
    a = acceptance
    doubled = a.root / "doubled.jsonl"
    doubled.write_bytes(a.traceroutes.read_bytes() * 2)
    tree = run_tree(a.root, "doubled", doubled, a.snapshot, a.catalog,
                    **{"refine.min_observations": 6})
    summary = tree.pop("summary.csv").decode("utf-8").splitlines()
    base_summary = a.tree["summary.csv"].decode("utf-8").splitlines()
    assert tree == {name: data for name, data in a.tree.items() if name != "summary.csv"}
    assert summary[0] == base_summary[0] and len(summary) == len(base_summary)
    assert summary != base_summary
    count = summary[0].split(",").index("traceroutes")
    for row, base_row in zip(summary[1:], base_summary[1:]):
        row, base_row = row.split(","), base_row.split(",")
        assert int(row[count]) == 2 * int(base_row[count])
        assert row[:count] + row[count + 1:] == base_row[:count] + base_row[count + 1:]
