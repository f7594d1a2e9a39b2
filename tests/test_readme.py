"""The README's library snippet runs as written on a synthetic corpus, and
its configuration reference names the keys the config reader accepts."""
from __future__ import annotations

import re
from pathlib import Path

from traceloc.cli import _SECTION_TYPES, _TOP_KEYS, main
from traceloc.refine import IpStatus
from tests.conftest import write_plane_catalog

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs(tmp_path, monkeypatch):
    write_plane_catalog(
        tmp_path / "cities.csv",
        [(f"g{r}{c}", "FR", 200.0 * c, 200.0 * r) for r in range(3) for c in range(4)],
    )
    (tmp_path / "synth.conf").write_text(
        "\n".join(
            [
                f"city_catalog = {tmp_path / 'cities.csv'}",
                f"out_dir = {tmp_path}",
                "seed = 7",
                "synth.n_routers = 24",
                "synth.n_cities = 12",
                "synth.n_paths = 200",
                "synth.interface_error_fraction = 0.1",
                "synth.min_displacement_km = 300",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(tmp_path / "synth.conf")]) == 0
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_snippet(), str(README), "exec"), namespace)
    tagged = {ip for ip, st in namespace["states"].items() if st.status is IpStatus.ANOMALOUS}
    assert tagged
    assert set(namespace["outcomes"]) == tagged
    assert set(namespace["baseline"]) == set(namespace["states"])
    assert namespace["table"][0].traceroute_count == len(namespace["paths"])


def config_reference_keys() -> set[str]:
    """The keys the README's "Configuration reference" names: every
    backticked word of the "Top level:" paragraph, and of each
    "`<section>.*`" paragraph with that section's prefix."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for paragraph in section.split("\n\n"):
        head = re.match(r"\s*(?:Top level:|`(\w+)\.\*`)", paragraph)
        if head:
            prefix = f"{head.group(1)}." if head.group(1) else ""
            keys |= {prefix + name for name in re.findall(r"`([a-z_]+)`", paragraph)}
    return keys


def test_config_reference_names_every_accepted_key():
    accepted = set(_TOP_KEYS) | {
        f"{section}.{name}" for section, fields in _SECTION_TYPES.items() for name in fields
    }
    assert config_reference_keys() == accepted
