"""The README's library snippet runs as written on a synthetic corpus, and
its configuration reference states each key the config reader accepts, with
its default and bound."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from traceloc.cli import _KNOBS, _rule, main
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


REFERENCE_ENTRY = re.compile(
    r"^- `(?P<key>[a-z_.]+)`: (?:required|default `(?P<default>[^`]*)`)(?:, `(?P<bound>[^`]*)`)?",
    re.M,
)


def config_reference() -> dict[str, tuple[str | None, str | None]]:
    """Each key of the README's "Configuration reference", mapped to its
    default (None where it is required) and its bound (None where it
    states none), both as written."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    return {
        m["key"]: (m["default"], m["bound"]) for m in REFERENCE_ENTRY.finditer(section)
    }


def test_config_reference_names_every_accepted_key():
    assert list(config_reference()) == list(_KNOBS)


@pytest.mark.parametrize("key", list(_KNOBS))
def test_config_reference_states_default_and_bound(key):
    default, bound = config_reference()[key]
    f = _KNOBS[key][1]
    if default is None:
        assert f.default == "", "only a key with an empty default is required"
    else:
        assert type(f.default)(default) == f.default
    rule = f.metadata.get("in")
    assert bound == (None if rule is None else _rule(rule))
