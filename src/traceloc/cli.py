"""Command-line entry points: ``run``, ``synth``, ``score``.

Configuration is a flat key-value file (``key = value``, ``#`` comments).
Every algorithm knob is overridable there; ``--out``, and ``--seed`` on
``synth``, override their config counterparts.  Exit codes: 0 success,
1 fatal input problem, 2 configuration problem.  Given identical inputs,
configuration, and seed, two runs produce byte-identical output trees.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import ingest, report
from .diagnostics import Diagnostics, logger
from .geo import SpatialIndex, cluster_candidates, load_city_catalog
from .ingest import CleanPath, ip_key
from .refine import (
    CandidateState,
    IpStatus,
    RefineConfig,
    extract_pairs,
    iterate,
    make_states,
    pair_budgets,
    tag_anomalies,
)
from .resolve import ResolutionOutcome, ResolveConfig, Verdict, resolve_all


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


class InputError(Exception):
    """Unusable input data; maps to exit code 1."""


@dataclass
class SynthSettings:
    n_routers: int = 50
    n_cities: int = 20
    mpls_fraction: float = 0.03
    n_paths: int = 500
    noise_fraction: float = 0.05
    interface_error_fraction: float = 0.05
    min_displacement_km: float = 500.0
    db_count: int = 8
    db_noise_km: float = 5.0
    tunnel_len: int = 4
    decoy_fraction: float = 0.0
    decoy_db_count: int = 1


@dataclass
class PipelineConfig:
    traceroutes: str = ""
    traceroute_format: str = "auto"
    geo_snapshot: str = ""
    city_catalog: str = ""
    out_dir: str = "out"
    seed: int = 0
    merge_radius_km: float = 20.0
    refine: RefineConfig = field(default_factory=RefineConfig)
    resolve: ResolveConfig = field(default_factory=ResolveConfig)
    synth: SynthSettings = field(default_factory=SynthSettings)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


# synth.MAX_ROUTERS, the size of synth's router address plan, repeated here
# so that checking a config never loads synth.
MAX_SYNTH_ROUTERS = 63750


def _field_types(klass: type) -> dict[str, type]:
    """Each field's type, read off its default value."""
    defaults = klass()
    return {f.name: type(getattr(defaults, f.name)) for f in dataclasses.fields(klass)}


_SECTION_TYPES = {
    "refine": _field_types(RefineConfig),
    "resolve": _field_types(ResolveConfig),
    "synth": _field_types(SynthSettings),
}

_TOP_KEYS = {
    name: typ
    for name, typ in _field_types(PipelineConfig).items()
    if name not in _SECTION_TYPES
}


def _convert(key: str, raw: str, typ: type):
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {typ.__name__}") from exc


def build_config(entries: dict[str, str]) -> PipelineConfig:
    cfg = PipelineConfig()
    for key, raw in entries.items():
        if "." in key:
            section, _, name = key.partition(".")
            if section not in _SECTION_TYPES or name not in _SECTION_TYPES[section]:
                raise ConfigError(f"unknown config key: {key}")
            value = _convert(key, raw, _SECTION_TYPES[section][name])
            setattr(getattr(cfg, section), name, value)
            continue
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        setattr(cfg, key, _convert(key, raw, _TOP_KEYS[key]))
    _validate_knobs(cfg)
    return cfg


def _validate_knobs(cfg: PipelineConfig) -> None:
    checks = [
        (0.0 <= cfg.refine.deviation_fraction <= 1.0, "refine.deviation_fraction in [0,1]"),
        (0.0 <= cfg.refine.prune_fraction <= 1.0, "refine.prune_fraction in [0,1]"),
        (0.0 <= cfg.refine.anomaly_ratio_threshold <= 1.0, "refine.anomaly_ratio_threshold in [0,1]"),
        (0.0 <= cfg.refine.direction_threshold <= 1.0, "refine.direction_threshold in [0,1]"),
        (cfg.refine.max_iterations >= 1, "refine.max_iterations >= 1"),
        (cfg.refine.min_observations >= 0, "refine.min_observations >= 0"),
        (0.0 <= cfg.resolve.country_dominance <= 1.0, "resolve.country_dominance in [0,1]"),
        (cfg.resolve.anchor_allowance_fraction >= 0.0, "resolve.anchor_allowance_fraction >= 0"),
        (cfg.resolve.tie_merge_max_km > 0, "resolve.tie_merge_max_km > 0"),
        (cfg.resolve.match_radius_km >= 0, "resolve.match_radius_km >= 0"),
        (cfg.resolve.min_anchors >= 1, "resolve.min_anchors >= 1"),
        (cfg.merge_radius_km >= 0, "merge_radius_km >= 0"),
        (cfg.out_dir != "", "out_dir not empty"),
        (cfg.traceroute_format in ("auto", "native", "atlas"), "traceroute_format one of auto|native|atlas"),
        (cfg.synth.n_routers >= 2, "synth.n_routers >= 2"),
        (cfg.synth.n_routers <= MAX_SYNTH_ROUTERS, f"synth.n_routers <= {MAX_SYNTH_ROUTERS}"),
        (cfg.synth.n_cities >= 1, "synth.n_cities >= 1"),
        (0.0 <= cfg.synth.mpls_fraction <= 1.0, "synth.mpls_fraction in [0,1]"),
        (cfg.synth.n_paths >= 1, "synth.n_paths >= 1"),
        (0.0 <= cfg.synth.noise_fraction < 1.0, "synth.noise_fraction in [0,1)"),
        (0.0 <= cfg.synth.interface_error_fraction <= 1.0, "synth.interface_error_fraction in [0,1]"),
        (cfg.synth.min_displacement_km >= 0, "synth.min_displacement_km >= 0"),
        (cfg.synth.db_count >= 1, "synth.db_count >= 1"),
        (0 <= cfg.synth.db_noise_km < math.inf, "synth.db_noise_km finite and >= 0"),
        (cfg.synth.tunnel_len >= 2, "synth.tunnel_len >= 2"),
        (0.0 <= cfg.synth.decoy_fraction <= 1.0, "synth.decoy_fraction in [0,1]"),
        (cfg.synth.decoy_db_count >= 0, "synth.decoy_db_count >= 0"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(f"config violates: {message}")


def load_config(path: str | Path, args: argparse.Namespace | None = None) -> PipelineConfig:
    entries = parse_config_file(path)
    if getattr(args, "out", None) is not None:
        entries["out_dir"] = args.out  # checked like the config's own value
    cfg = build_config(entries)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _require_inputs(cfg: PipelineConfig, command: str, *keys: str) -> None:
    """Each input key must be set and name a path that exists: a config
    error otherwise.  A path that exists but cannot be read is left to the
    loaders, as an input error."""
    for key in keys:
        value = getattr(cfg, key)
        if not value:
            raise ConfigError(f"config key {key} is required for {command}")
        if not Path(value).exists():
            raise ConfigError(f"{key} file not found: {value}")


def _read_traceroutes(cfg: PipelineConfig, diag: Diagnostics) -> list[CleanPath]:
    path = Path(cfg.traceroutes)
    # A bad byte reads as a lone surrogate, and the reader counts its line.
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as fh:
        fmt, head = cfg.traceroute_format, []
        if fmt == "auto":
            fmt, head = ingest.sniff_format(fh)
        load = ingest.load_native if fmt == "native" else ingest.load_atlas
        paths = load(itertools.chain(head, fh), diag)
    if not paths:
        raise InputError(f"no usable traceroutes in {path}")
    return paths


def _make_out_dir(cfg: PipelineConfig) -> Path:
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {out_dir}: {exc}") from exc
    return out_dir


def _write_outputs(out_dir: Path, writers: dict[str, Callable[[Path], object]]) -> None:
    """Write each named file of ``out_dir`` with its writer, or none.  Like an
    ``out_dir`` that cannot be created, a config error: found before any write
    when a path exists as something other than a file, and after deleting the
    files written so far on any other ``OSError``."""
    for name in writers:
        if (out_dir / name).exists() and not (out_dir / name).is_file():
            raise ConfigError(f"cannot write to out_dir {out_dir}: {out_dir / name} is not a file")
    written: list[Path] = []
    try:
        for name, write in writers.items():
            written.append(out_dir / name)
            write(out_dir / name)
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write to out_dir {out_dir}: {exc}") from exc


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector and restore the caller's setting
    on the way out.  A run's objects form no reference cycles, so the
    collector would only walk them again and again."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def run(cfg: PipelineConfig) -> int:
    """End-to-end analysis: ingest, cluster, refine, tag, resolve, report."""
    diag = Diagnostics()
    _require_inputs(cfg, "run", "traceroutes", "geo_snapshot", "city_catalog")
    try:
        paths = _read_traceroutes(cfg, diag)
        snapshot = ingest.load_geo_snapshot(cfg.geo_snapshot, diag)
        catalog = load_city_catalog(cfg.city_catalog)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    out_dir = _make_out_dir(cfg)
    index = SpatialIndex(catalog)

    corpus_ips = {ip for p in paths for ip, _ in p.hops}
    all_ips = sorted(corpus_ips, key=ip_key)
    clusters_by_ip = {}
    for ip in all_ips:
        records = snapshot.get(ip)
        if records:
            clusters_by_ip[ip] = cluster_candidates(records, cfg.merge_radius_km)
        else:
            diag.warn("ip_without_geolocation", f"{ip}: no snapshot records")
    states = make_states(clusters_by_ip)

    pairs = extract_pairs(paths)
    links = [(pair.ip_a, pair.ip_b) for pair in pairs]
    budgets = pair_budgets(pairs, cfg.refine)
    del pairs  # from here on the observations live only as budgets
    iterate(states, budgets, cfg.refine, diag=diag)
    tag_anomalies(states, cfg.refine)
    baseline = report.sol_baseline(clusters_by_ip, budgets)
    del budgets  # freed before resolve_all, so they add nothing to its peak memory
    outcomes = resolve_all(states, paths, index, cfg.resolve, diag=diag)

    summary = report.summarize(outcomes, paths, links, corpus_ips)
    hist = report.cluster_histogram(states, baseline)
    distances, under_20 = report.distance_cdf(outcomes, snapshot, diag)
    deltas, changed_fraction = report.country_delta(outcomes, snapshot)
    _write_outputs(out_dir, {
        "summary.csv": lambda path: report.write_summary_csv(summary, path),
        "clusters_hist.csv": lambda path: report.write_histogram_csv(hist, path),
        "distance_cdf.csv": lambda path: report.write_distance_cdf_csv(distances, path),
        "country_delta.csv": lambda path: report.write_country_delta_csv(deltas, path),
        "ips.jsonl": lambda path: _write_ips_jsonl(states, outcomes, path),
    })

    tagged = sum(1 for s in states.values() if s.status is IpStatus.ANOMALOUS)
    logger.info(
        "run: %d traceroutes, %d ips (%d with candidates), %d anomalous, %d corrected",
        len(paths), len(all_ips), len(states), tagged,
        sum(1 for o in outcomes.values() if o.verdict is Verdict.INTERFACE_AFFECTED),
    )
    if under_20 is not None:
        logger.info("corrections within 20 km of database consensus: %.4f", under_20)
    if changed_fraction is not None:
        logger.info("corrected IPs that changed country: %.4f", changed_fraction)
    logger.info("%s", diag.summary_line())
    return 0


def _write_ips_jsonl(
    states: dict[str, CandidateState],
    outcomes: dict[str, ResolutionOutcome],
    path: Path,
) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in report.ip_records(states, outcomes):
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


@_collector_paused()
def synth_cmd(cfg: PipelineConfig) -> int:
    """Generate a world, its traceroute corpus, and a corrupted snapshot."""
    from . import synth  # imported here, so that `run` never loads it

    diag = Diagnostics()
    _require_inputs(cfg, "synth", "city_catalog")
    try:
        catalog = load_city_catalog(cfg.city_catalog)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    out_dir = _make_out_dir(cfg)
    s = cfg.synth
    try:
        world = synth.generate_world(
            cfg.seed, s.n_routers, s.n_cities, s.mpls_fraction, catalog,
            tunnel_len=s.tunnel_len, diag=diag,
        )
        paths = synth.simulate_traceroutes(world, s.n_paths, s.noise_fraction, diag)
        # Every InjectionSpec field is a SynthSettings field of the same name.
        spec = synth.InjectionSpec(
            **{f.name: getattr(s, f.name) for f in dataclasses.fields(synth.InjectionSpec)}
        )
        snapshot, displaced = synth.corrupt_geodb(world, spec, cfg.seed, catalog, diag)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def write_traceroutes(path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            ingest.dump_native(paths, fh)

    _write_outputs(out_dir, {
        "world.json": lambda path: synth.save_world(world, path),
        "traceroutes.jsonl": write_traceroutes,
        "snapshot.csv": lambda path: ingest.write_geo_snapshot(snapshot, path),
        "displaced.json": lambda path: path.write_text(
            json.dumps({"displaced": sorted(displaced, key=ip_key)}, indent=2) + "\n",
            encoding="utf-8",
        ),
    })
    logger.info(
        "synth: %d routers, %d links, %d tunnels, %d paths, %d displaced ips",
        len(world.routers), len(world.links), len(world.mpls_tunnels),
        len(paths), len(displaced),
    )
    logger.info("%s", diag.summary_line())
    return 0


def score_cmd(results_dir: str | Path, world_file: str | Path,
              displaced_file: str | Path | None = None) -> int:
    """Grade a results directory against the world that produced it."""
    if "" in (str(results_dir), str(world_file)):
        raise InputError("empty path: score needs a results directory and a world file")
    from . import synth

    results_dir = Path(results_dir)
    world_file = Path(world_file)
    ips_file = results_dir / "ips.jsonl"
    if not ips_file.exists():
        raise InputError(f"results file not found: {ips_file}")
    if not world_file.exists():
        raise InputError(f"world file not found: {world_file}")
    if displaced_file is None:
        displaced_file = world_file.parent / "displaced.json"
    displaced_file = Path(displaced_file)
    if not displaced_file.exists():
        raise InputError(f"displaced-set file not found: {displaced_file}")

    try:
        world = synth.load_world(world_file)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{world_file}: bad world file ({type(exc).__name__}: {exc})") from exc
    router_ips = {r.ip for r in world.routers}
    try:
        displaced = json.loads(displaced_file.read_text(encoding="utf-8"))["displaced"]
        if not isinstance(displaced, list) or not router_ips.issuperset(displaced):
            raise ValueError("displaced must be a list of world router IPs")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{displaced_file}: bad displaced set ({type(exc).__name__}: {exc})") from exc
    records = _read_ips_jsonl(ips_file, router_ips)

    report_obj = synth.score_against_truth(records, world, set(displaced))

    _write_outputs(results_dir, {
        "score.csv": lambda path: ingest.write_csv(path, ("metric", "value"), report_obj.rows()),
    })
    logger.info("score written to %s", results_dir / "score.csv")
    return 0


def _read_ips_jsonl(path: Path, router_ips: set[str]) -> list[dict]:
    """The records of a results file, each checked for what scoring reads:
    a world router's ``ip``, a known ``status`` and ``verdict``, string
    cluster cities and countries and a null ``resolved`` or one with finite
    lat in [-90, 90] and lon in [-180, 180].  A repeated ip keeps its last
    record."""
    records: dict[str, dict] = {}
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise InputError(f"{path}: cannot read results ({type(exc).__name__}: {exc})") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                ip, resolved = rec["ip"], rec["resolved"]
                IpStatus(rec["status"])
                if rec["verdict"] is not None:
                    Verdict(rec["verdict"])
                if {type(c[k]) for c in rec["clusters"] for k in ("city", "country")} - {str}:
                    raise TypeError("cluster city and country must be strings")
                if resolved is not None:
                    lat, lon = resolved["lat"], resolved["lon"]
                    if {type(lat), type(lon)} - {int, float}:
                        raise TypeError("resolved lat and lon must be numbers")
                    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                        raise ValueError("resolved lat and lon must be finite and in range")
                if ip not in router_ips:
                    raise InputError(f"results do not match world: {ip} is not a world router")
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{path}:{lineno}: bad record ({type(exc).__name__}: {exc})") from exc
            records[ip] = rec
    return list(records.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="traceloc",
        description="Detect and repair anomalous IP geolocations in traceroute corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        return p

    common(sub.add_parser("run", help="analyze a traceroute corpus"))
    p_synth = common(sub.add_parser("synth", help="generate a synthetic ground-truth corpus"))
    p_synth.add_argument("--seed", type=int, help="rng seed (overrides seed)")
    p_score = sub.add_parser("score", help="grade results against a synthetic world")
    p_score.add_argument("results_dir")
    p_score.add_argument("world_file")
    p_score.add_argument("--displaced", help="displaced-set file (default: next to world)")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        if args.command == "run":
            return run(load_config(args.config, args))
        if args.command == "synth":
            return synth_cmd(load_config(args.config, args))
        if args.command == "score":
            return score_cmd(args.results_dir, args.world_file, args.displaced)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except (InputError, FileNotFoundError) as exc:
        logger.error("input error: %s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
