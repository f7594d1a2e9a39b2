"""Traceroute and geolocation ingestion.

Two traceroute encodings are understood: the RIPE Atlas result export
(newline-delimited JSON, one measurement result per line) and a native
line format holding already-cleaned paths, both read a few lines at a
time: :func:`load_atlas` parses Atlas records and normalizes each with
:func:`clean_paths`; :func:`load_native` parses native lines directly.  A
line that is not valid UTF-8 or JSON is counted and skipped.  Geolocation
data arrives either as a snapshot CSV or through the rate-limited
:func:`fetch_geo` client.
"""
from __future__ import annotations

import csv
import functools
import ipaddress
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .diagnostics import Diagnostics

# Address space that cannot carry a meaningful public geolocation: private,
# loopback, link-local, carrier-grade NAT, multicast, class E, zero and
# broadcast.  Documentation/test prefixes (192.0.2/24 etc.) are deliberately
# absent so synthetic corpora survive normalization.
DEFAULT_BOGONS: tuple[ipaddress.IPv4Network, ...] = tuple(
    ipaddress.ip_network(net)
    for net in (
        "0.0.0.0/8",
        "10.0.0.0/8",
        "100.64.0.0/10",
        "127.0.0.0/8",
        "169.254.0.0/16",
        "172.16.0.0/12",
        "192.168.0.0/16",
        "224.0.0.0/4",
        "240.0.0.0/4",
        "255.255.255.255/32",
    )
)


def ip_key(ip: str) -> int:
    """Numeric sort key for an IPv4 address."""
    return int(ipaddress.IPv4Address(ip))


# A corpus names each address many times.  Each reading call wraps the
# test below (or the bogon test) in a fresh functools.cache, so a distinct
# address is parsed once per call and the cache is dropped with the call.


def _ip_version(text: str) -> int:
    """4 or 6 for a valid address string, 0 for anything else."""
    try:
        return ipaddress.ip_address(text).version
    except ValueError:
        return 0


# The types of a JSON number as ``json.loads`` returns it, compared exactly:
# ``true``/``false`` come back as bools, which ``isinstance`` takes for ints.
_JSON_NUMBER = {int, float}


def is_bogon(ip: str) -> bool:
    addr = ipaddress.IPv4Address(ip)
    return any(addr in net for net in DEFAULT_BOGONS)


@dataclass
class RawHop:
    hop_index: int
    # (responder ip or None, rtt ms or None) per probe reply; timeouts keep
    # their slot as (None, None).
    replies: list[tuple[str | None, float | None]] = field(default_factory=list)


@dataclass
class RawTraceroute:
    measurement_id: str
    probe_id: str
    timestamp: int
    hops: list[RawHop] = field(default_factory=list)


@dataclass
class CleanPath:
    """A normalized traceroute: consecutive responsive hops with one RTT each."""

    path_id: str
    hops: list[tuple[str, float]] = field(default_factory=list)
    source_traceroute: str = ""


@dataclass(frozen=True)
class GeoRecord:
    ip: str
    source: str
    lat: float
    lon: float
    city: str
    country: str


def _json_lines(
    stream: Iterable[str], diag: Diagnostics, kind: str, bad_json: str, first_line: int = 1
) -> Iterator[tuple[int, object]]:
    """Number and JSON value of each non-blank line; a line with a bad byte
    (read as a lone surrogate) or not valid JSON is counted under ``kind``."""
    for lineno, line in enumerate(stream, start=first_line):
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii():
                line.encode("utf-8")
            doc = json.loads(line)
        except UnicodeEncodeError:
            diag.warn(kind, f"line {lineno}: not valid UTF-8")
            continue
        except (ValueError, RecursionError):
            diag.warn(kind, f"line {lineno}: {bad_json}")
            continue
        yield lineno, doc


def sniff_format(lines: Iterator[str]) -> tuple[str, list[str]]:
    """``native`` if the first line holding a JSON object has a ``path_id``,
    else ``atlas``; and the lines read to decide, for a reader to take first."""
    head: list[str] = []
    for line in lines:
        head.append(line)
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(doc, dict):
            return ("native" if "path_id" in doc else "atlas"), head
    return "atlas", head


def parse_atlas(
    stream: Iterable[str], diag: Diagnostics | None = None, *,
    first_line: int = 1, version: Callable[[str], int] | None = None,
) -> list[RawTraceroute]:
    """Parse a RIPE Atlas newline-delimited JSON export.

    Consumes ``msm_id``, ``prb_id``, ``timestamp`` and, per hop entry,
    ``result[].hop`` plus each reply's ``from``/``rtt``.  Replies lacking a
    field keep ``None`` in that slot; duplicate hop numbers merge their
    replies.  Malformed lines are counted and skipped — parsing a corpus
    never fails outright.  IPv6 responders are counted (``atlas_ipv6``,
    one per reply) and kept as no response, like any non-IPv4 ``from``.
    ``first_line`` (the number of ``stream``'s first line in warnings) and
    ``version`` (the address check) let :func:`load_atlas` parse in parts.
    """
    diag = diag or Diagnostics()
    version = version or functools.cache(_ip_version)
    out: list[RawTraceroute] = []
    for lineno, doc in _json_lines(stream, diag, "atlas_malformed", "not valid JSON", first_line):
        try:
            rt, ipv6 = _atlas_record(doc, version)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            diag.warn("atlas_malformed", f"line {lineno}: {exc}")
            continue
        if ipv6:
            diag.warn("atlas_ipv6", f"line {lineno}: {ipv6} IPv6 replies kept as no response", ipv6)
        out.append(rt)
    return out


def _atlas_record(doc: object, version: Callable[[str], int]) -> tuple[RawTraceroute, int]:
    """One export record and its number of IPv6 replies."""
    if not isinstance(doc, dict):
        raise ValueError("record is not an object")
    msm = doc["msm_id"]
    prb = doc["prb_id"]
    ts = doc["timestamp"]
    if not isinstance(ts, int) or ts <= 0:
        raise ValueError("timestamp must be a positive integer")
    hops_raw = doc.get("result", [])
    if not isinstance(hops_raw, list):
        raise ValueError("result must be a list")
    by_index: dict[int, RawHop] = {}
    ipv6 = 0
    for entry in hops_raw:
        if not isinstance(entry, dict) or "hop" not in entry:
            continue
        hop_no = entry["hop"]
        if not isinstance(hop_no, int) or hop_no < 1:
            continue
        hop = by_index.setdefault(hop_no, RawHop(hop_index=hop_no))
        for reply in entry.get("result", []) or []:
            if not isinstance(reply, dict):
                continue
            responder = reply.get("from")
            v = version(responder) if isinstance(responder, str) else 0
            if v != 4:
                ipv6 += v == 6
                responder = None
            rtt = reply.get("rtt")
            if type(rtt) not in _JSON_NUMBER or not 0 <= rtt < math.inf:
                rtt = None
            hop.replies.append((responder, float(rtt) if rtt is not None else None))
    hops = [by_index[k] for k in sorted(by_index)]
    rt = RawTraceroute(measurement_id=str(msm), probe_id=str(prb), timestamp=ts, hops=hops)
    return rt, ipv6


def normalize(rt: RawTraceroute, diag: Diagnostics | None = None) -> CleanPath | None:
    """Turn a raw traceroute into a :class:`CleanPath`, or reject it.

    Unresponsive hops are dropped; a surviving hop reports the responder
    seen most often (first seen wins ties) and the median of the hop's
    non-null RTTs.  Bogon responders are removed, consecutive duplicate
    IPs collapse onto the first occurrence, and a path is rejected
    (``None``) when an IP repeats non-consecutively — a forwarding loop —
    or fewer than two hops survive.  Running the result through
    normalization again would change nothing.
    """
    return _normalize(rt, functools.cache(is_bogon), diag or Diagnostics())


def _normalize(
    rt: RawTraceroute, bogon: Callable[[str], bool], diag: Diagnostics
) -> CleanPath | None:
    ident = f"{rt.measurement_id}-{rt.probe_id}-{rt.timestamp}"
    kept: list[tuple[str, float]] = []
    seen: set[str] = set()
    for hop in rt.hops:
        responders = [ip for ip, _ in hop.replies if ip is not None]
        rtts = sorted(rtt for _, rtt in hop.replies if rtt is not None)
        if not responders or not rtts:
            continue
        ip = max(responders, key=responders.count)  # the first of a tie
        if bogon(ip) or (kept and kept[-1][0] == ip):
            continue  # a bogon, or a repeat of the hop before, which keeps its RTT
        if ip in seen:
            diag.warn("path_loop", f"{ident}: ip {ip} repeats non-consecutively")
            return None
        seen.add(ip)
        mid = len(rtts) // 2
        kept.append((ip, float(rtts[mid] if len(rtts) % 2 else (rtts[mid - 1] + rtts[mid]) / 2)))
    if len(kept) < 2:
        diag.warn("path_short", f"{ident}: fewer than 2 hops survive")
        return None
    return CleanPath(path_id=ident, hops=kept, source_traceroute=ident)


def clean_paths(
    raws: Iterable[RawTraceroute], diag: Diagnostics | None = None
) -> list[CleanPath]:
    """Normalize each raw traceroute as it comes, disambiguating colliding
    path ids with a suffix.  Each responder's bogon status is decided once."""
    diag = diag or Diagnostics()
    bogon = functools.cache(is_bogon)
    out: list[CleanPath] = []
    seen: dict[str, int] = {}
    for rt in raws:
        path = _normalize(rt, bogon, diag)
        if path is None:
            continue
        n = seen[path.path_id] = seen.get(path.path_id, 0) + 1
        if n > 1:
            path.path_id = f"{path.path_id}-{n}"
        out.append(path)
    return out


_ATLAS_PART = 32  # lines per parse_atlas call in load_atlas


def load_atlas(stream: Iterable[str], diag: Diagnostics | None = None) -> list[CleanPath]:
    """Read a RIPE Atlas export into clean paths: :func:`parse_atlas` takes
    ``_ATLAS_PART`` lines at a time and :func:`clean_paths` each record as it
    comes, so only one part's raw records are ever held."""
    diag = diag or Diagnostics()
    version = functools.cache(_ip_version)  # shared by the parts
    lines = iter(stream)
    parts = iter(lambda: list(itertools.islice(lines, _ATLAS_PART)), [])
    raws = (
        rt
        for i, part in enumerate(parts)
        for rt in parse_atlas(part, diag, first_line=1 + i * _ATLAS_PART, version=version)
    )
    return clean_paths(raws, diag=diag)


def load_native(stream: Iterable[str], diag: Diagnostics | None = None) -> list[CleanPath]:
    """Parse the native one-JSON-object-per-line traceroute format:
    ``{"path_id": str, "hops": [{"ip": "a.b.c.d", "rtt": float}, ...]}``.

    Lines violating the format or the CleanPath invariants are counted
    and skipped.  Each distinct address string is validated once.
    """
    diag = diag or Diagnostics()
    version = functools.cache(_ip_version)
    out: list[CleanPath] = []
    for lineno, doc in _json_lines(stream, diag, "native_malformed", "bad native record"):
        try:
            path_id = doc["path_id"]
            hops = [(h["ip"], float(h["rtt"])) for h in doc["hops"]]
            if not isinstance(path_id, str):
                raise ValueError("path_id must be a string")
            if not {type(h["rtt"]) for h in doc["hops"]} <= _JSON_NUMBER:
                raise TypeError("rtt must be a number")
        except (KeyError, TypeError, ValueError, OverflowError):
            diag.warn("native_malformed", f"line {lineno}: bad native record")
            continue
        if len(hops) < 2 or any(
            not isinstance(ip, str) or version(ip) != 4 or not 0 <= rtt < math.inf
            for ip, rtt in hops
        ):
            diag.warn("native_malformed", f"line {lineno}: invalid hops")
            continue
        if any(a == b for (a, _), (b, _) in zip(hops, hops[1:])):
            diag.warn("native_malformed", f"line {lineno}: consecutive duplicate hop")
            continue
        out.append(CleanPath(path_id=path_id, hops=hops, source_traceroute=path_id))
    return out


def serialize_native(path: CleanPath) -> str:
    """Canonical single-line encoding; parsing it back is the identity."""
    doc = {"path_id": path.path_id, "hops": [{"ip": ip, "rtt": rtt} for ip, rtt in path.hops]}
    return json.dumps(doc, separators=(",", ":"))


def dump_native(paths: Iterable[CleanPath], fh: TextIO) -> None:
    for path in paths:
        fh.write(serialize_native(path) + "\n")


def load_geo_snapshot(
    path: str | Path, diag: Diagnostics | None = None
) -> dict[str, list[GeoRecord]]:
    """Load a geolocation snapshot CSV (``ip,source,lat,lon,city,country``).

    Malformed rows (a bad byte in source, city or country among them) and
    coordinate-range violations are skipped with a warning; duplicate
    (ip, source) rows keep the first occurrence.  A missing file is fatal.
    """
    diag = diag or Diagnostics()
    version = functools.cache(_ip_version)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"geolocation snapshot not found: {path}")
    by_ip: dict[str, list[GeoRecord]] = {}
    seen: set[tuple[str, str]] = set()
    # A bad byte reads as a lone surrogate, and the check below counts its row.
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.DictReader(fh)
        required = {"ip", "source", "lat", "lon", "city", "country"}
        header = set(reader.fieldnames or [])
        if not required.issubset(header):
            raise ValueError(f"snapshot {path} missing columns {sorted(required - header)}")
        for lineno, row in enumerate(reader, start=2):
            ip = (row["ip"] or "").strip()
            source = (row["source"] or "").strip()
            if version(ip) != 4 or not source:
                diag.warn("snapshot_malformed", f"{path}:{lineno}: bad ip/source")
                continue
            city = (row["city"] or "").strip()
            country = (row["country"] or "").strip().upper()
            try:
                (source + city + country).encode("utf-8")
            except UnicodeEncodeError:
                diag.warn("snapshot_malformed", f"{path}:{lineno}: not valid UTF-8")
                continue
            try:
                lat = float(row["lat"])
                lon = float(row["lon"])
            except (TypeError, ValueError):
                diag.warn("snapshot_malformed", f"{path}:{lineno}: bad coordinates")
                continue
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                diag.warn("snapshot_range", f"{path}:{lineno}: coordinates out of range")
                continue
            if (ip, source) in seen:
                diag.warn("snapshot_duplicate", f"{path}:{lineno}: duplicate ({ip}, {source})")
                continue
            seen.add((ip, source))
            by_ip.setdefault(ip, []).append(
                GeoRecord(
                    ip=ip,
                    source=source,
                    lat=lat,
                    lon=lon,
                    city=city,
                    country=country,
                )
            )
    return by_ip


def write_geo_snapshot(by_ip: dict[str, list[GeoRecord]], path: str | Path) -> Path:
    """Write a snapshot CSV with deterministic row order (atomic replace)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ip", "source", "lat", "lon", "city", "country"])
        for ip in sorted(by_ip, key=ip_key):
            for rec in sorted(by_ip[ip], key=lambda r: r.source):
                writer.writerow([rec.ip, rec.source, repr(rec.lat), repr(rec.lon), rec.city, rec.country])
    os.replace(tmp, path)
    return path


# --- remote geolocation fetch (optional plumbing) -------------------------


@dataclass(frozen=True)
class GeoSource:
    """One remote geolocation provider.

    ``url`` is a template with ``{ip}`` (and optionally ``{key}``)
    placeholders; ``rate_per_s`` caps request frequency against it.
    """

    name: str
    url: str
    key: str = ""
    rate_per_s: float = 1.0


class FetchError(RuntimeError):
    """Raised when every configured source is unreachable."""


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


class _RateLimiter:
    """Spaces calls at least 1/rate seconds apart, including before the
    first one, so N requests take at least N/rate seconds."""

    def __init__(
        self,
        rate_per_s: float,
        sleep: Callable[[float], None],
        monotonic: Callable[[], float],
    ) -> None:
        self._interval = 1.0 / rate_per_s if rate_per_s > 0 else 0.0
        self._sleep = sleep
        self._monotonic = monotonic
        self._next_at = monotonic() + self._interval

    def wait(self) -> None:
        now = self._monotonic()
        if now < self._next_at:
            self._sleep(self._next_at - now)
        self._next_at = max(now, self._next_at) + self._interval


def _default_http_get(url: str) -> dict:
    import requests

    resp = requests.get(url, timeout=10)
    resp.raise_for_status()
    return resp.json()


def _extract_record(payload: dict, ip: str, source: str) -> GeoRecord:
    def pick(*names):
        for n in names:
            if n in payload and payload[n] is not None:
                return payload[n]
        return None

    lat = pick("lat", "latitude")
    lon = pick("lon", "lng", "longitude")
    if lat is None or lon is None:
        raise ValueError("response lacks coordinates")
    lat, lon = float(lat), float(lon)
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError("response coordinates out of range")
    city = pick("city") or ""
    country = pick("country", "country_code", "countryCode") or ""
    return GeoRecord(
        ip=ip, source=source, lat=lat, lon=lon, city=str(city).strip(),
        country=str(country).strip().upper(),
    )


def fetch_geo(
    ips: Iterable[str],
    sources: dict[str, GeoSource],
    cache_dir: str | Path,
    out_path: str | Path,
    *,
    http_get: Callable[[str], dict] | None = None,
    sleep: Callable[[float], None] | None = None,
    monotonic: Callable[[], float] | None = None,
    diag: Diagnostics | None = None,
) -> Path:
    """Query each source for each IP, cache-first, and write a snapshot CSV.

    A cached (ip, source) answer is never fetched again; only network
    requests consume rate budget.  Per-IP failures are warnings; a source
    that answers nothing marks itself unreachable, and if every source is
    unreachable and the cache contributed nothing, :class:`FetchError`
    is raised.
    """
    diag = diag or Diagnostics()
    http_get = http_get or _default_http_get
    sleep = sleep or time.sleep
    monotonic = monotonic or time.monotonic
    cache_dir = Path(cache_dir)

    wanted = sorted({ip for ip in ips if _ip_version(ip) == 4}, key=ip_key)
    by_ip: dict[str, list[GeoRecord]] = {}
    any_success = False
    sources_down = 0

    for name in sorted(sources):
        src = sources[name]
        src_cache = cache_dir / name
        src_cache.mkdir(parents=True, exist_ok=True)
        limiter = _RateLimiter(src.rate_per_s, sleep, monotonic)
        network_failures = 0
        network_attempts = 0
        for ip in wanted:
            cache_file = src_cache / f"{ip}.json"
            if cache_file.exists():
                try:
                    payload = json.loads(cache_file.read_text(encoding="utf-8"))
                    rec = _extract_record(payload, ip, name)
                except (json.JSONDecodeError, ValueError, KeyError):
                    diag.warn("fetch_cache_corrupt", f"{cache_file} unreadable; refetching")
                else:
                    by_ip.setdefault(ip, []).append(rec)
                    any_success = True
                    continue
            network_attempts += 1
            limiter.wait()
            url = src.url.format(ip=ip, key=src.key)
            try:
                payload = http_get(url)
                rec = _extract_record(payload, ip, name)
            except Exception as exc:  # provider errors must never kill the run
                network_failures += 1
                diag.warn("fetch_failed", f"{name}/{ip}: {exc}")
                continue
            tmp = cache_file.with_name(cache_file.name + ".tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            os.replace(tmp, cache_file)
            by_ip.setdefault(ip, []).append(rec)
            any_success = True
        if network_attempts > 0 and network_failures == network_attempts:
            sources_down += 1

    if sources and sources_down == len(sources) and not any_success:
        raise FetchError("all geolocation sources unreachable")
    return write_geo_snapshot(by_ip, out_path)


def load_fetch_config(entries: dict[str, str]) -> dict[str, GeoSource]:
    """Build GeoSource specs from flat ``source.<name>.<field>`` keys.

    Keys outside ``source.`` are skipped; a ``source.`` key whose field is
    not one of ``url``, ``key`` or ``rate_per_s`` is a :class:`ConfigError`.
    """
    grouped: dict[str, dict[str, str]] = {}
    for key, value in entries.items():
        parts = key.split(".")
        if parts[0] != "source":
            continue
        if len(parts) != 3 or parts[2] not in ("url", "key", "rate_per_s"):
            raise ConfigError(f"unknown config key: {key}")
        grouped.setdefault(parts[1], {})[parts[2]] = value
    sources: dict[str, GeoSource] = {}
    for name, fields in sorted(grouped.items()):
        if "url" not in fields:
            raise ConfigError(f"source.{name}: missing url")
        try:
            rate = float(fields.get("rate_per_s", "1"))
        except ValueError as exc:
            raise ConfigError(f"source.{name}: bad rate_per_s") from exc
        if rate <= 0:
            raise ConfigError(f"source.{name}: rate_per_s must be positive")
        sources[name] = GeoSource(
            name=name, url=fields["url"], key=fields.get("key", ""), rate_per_s=rate
        )
    return sources
