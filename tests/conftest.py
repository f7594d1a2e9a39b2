"""Shared fixtures and the acceptance-line terminal report."""
from __future__ import annotations

import math
from pathlib import Path

import pytest

from traceloc.geo import GeoPoint, haversine_km, load_city_catalog
from traceloc.refine import CandidateState, RefineConfig, budget_km

DATA_DIR = Path(__file__).parent / "data"

# One line per acceptance criterion, printed after the run so they survive
# pytest's output capture.  test_acceptance.py appends to this.
ACCEPT_LINES: list[str] = []


def pytest_configure(config):
    # A file handle left open fails the test that leaked it.
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPT_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPT_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


# --- reference helpers the pipeline itself does not need ---------------------


def pair_feasible(
    loc_a: GeoPoint, loc_b: GeoPoint, rtt_a: float, rtt_b: float, cfg: RefineConfig
) -> bool:
    """Can these two locations be adjacent hops given their RTTs?

    True when the great-circle distance fits within the light-in-fiber
    budget of the RTT difference plus ``deviation_fraction`` of the RTT
    sum (boundary inclusive).  Symmetric in the two (location, RTT) roles.
    """
    return haversine_km(loc_a, loc_b) <= budget_km(rtt_a, rtt_b, cfg)


def single_cluster_fraction(states: dict[str, CandidateState]) -> float:
    """The share of IPs left with exactly one candidate cluster."""
    if not states:
        return 0.0
    singles = sum(1 for s in states.values() if len(s.candidates) == 1)
    return singles / len(states)


# --- flat-plane catalog helpers ---------------------------------------------
#
# Many fixtures lay cities out on a local tangent plane: x/y in km around
# (0, 0), converted to lon/lat.  At these scales the sphere is flat enough
# that haversine distances match the plane distances to well under a percent,
# which keeps hand-computed expectations readable.

KM_PER_DEG_LAT = 6371.0 * math.pi / 180.0


def plane_latlon(x_km: float, y_km: float) -> tuple[float, float]:
    lat = y_km / KM_PER_DEG_LAT
    lon = x_km / (KM_PER_DEG_LAT * math.cos(math.radians(lat)))
    return round(lat, 6), round(lon, 6)


def write_plane_catalog(path: Path, rows: list[tuple[str, str, float, float]]) -> Path:
    """Write a catalog CSV from (name, country, x_km, y_km) rows."""
    lines = ["name,country,lat,lon"]
    for name, country, x, y in rows:
        lat, lon = plane_latlon(x, y)
        lines.append(f"{name},{country},{lat},{lon}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def grid_catalog(tmp_path_factory):
    """A 4x3 grid of cities 200 km apart."""
    rows = [
        (f"g{r}{c}", "FR", 200.0 * c, 200.0 * r) for r in range(3) for c in range(4)
    ]
    path = tmp_path_factory.mktemp("catalog") / "grid.csv"
    write_plane_catalog(path, rows)
    return load_city_catalog(path)
