"""Traceroute and geolocation ingestion.

Two traceroute encodings are understood: the RIPE Atlas result export
(newline-delimited JSON, one measurement result per line) and a native
line format holding already-cleaned paths, both read a few lines at a
time.  :func:`load_atlas` has :func:`parse_atlas` read Atlas records,
voting each hop's replies down to one (responder, RTT) answer as they are
read, and :func:`clean_paths` apply the path rules (bogons, repeats,
loops, length) to each record; :func:`load_native` parses native lines
directly.  A line that is not valid UTF-8 or JSON is counted and skipped.
Geolocation data arrives as a snapshot CSV.  :func:`read_csv` reads the
snapshot and the city catalog strictly, and :func:`write_csv` writes every
CSV table, its numbers formatted by :func:`csv_number`.
"""
from __future__ import annotations

import csv
import functools
import ipaddress
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

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
class RawTraceroute:
    """One Atlas record: per hop number, ascending, the hop's voted answer
    ``(ip, rtt ms)``.  ``ip`` is the IPv4 responder its replies name most
    often (the first seen of a tie) and ``rtt`` the median of all its
    replies' RTTs, those of IPv6 and outvoted replies included.  A hop with
    no IPv4 responder or no RTT has no entry."""

    measurement_id: str
    probe_id: str
    timestamp: int
    hops: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class CleanPath:
    """A normalized traceroute: consecutive responsive hops with one RTT each."""

    path_id: str
    hops: list[tuple[str, float]] = field(default_factory=list)
    source_traceroute: str = ""


class GeoRecord(NamedTuple):
    """One snapshot row: a database's location for an IP."""

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
    ``result[].hop`` plus each reply's ``from``/``rtt``, and votes each hop
    as its replies are read (see :class:`RawTraceroute`).  Duplicate hop
    numbers merge their replies into one vote.  Malformed lines are counted
    and skipped — parsing a corpus never fails outright.  IPv6 responders
    are counted (``atlas_ipv6``, one per reply) and are no responder, like
    any non-IPv4 ``from``; their RTTs still count.
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
            msg = f"line {lineno}: {ipv6} IPv6 replies taken as no responder, their RTTs kept"
            diag.warn("atlas_ipv6", msg, ipv6)
        out.append(rt)
    return out


def _atlas_record(doc: object, version: Callable[[str], int]) -> tuple[RawTraceroute, int]:
    """One export record and its number of IPv6 replies.  Each hop's replies
    are voted as they are read: see :class:`RawTraceroute`."""
    if not isinstance(doc, dict):
        raise ValueError("record is not an object")
    msm = doc["msm_id"]
    prb = doc["prb_id"]
    ts = doc["timestamp"]
    if type(ts) is not int or ts <= 0:  # exact: a bool is no timestamp
        raise ValueError("timestamp must be a positive integer")
    hops_raw = doc.get("result", [])
    if not isinstance(hops_raw, list):
        raise ValueError("result must be a list")
    # Per hop number: its IPv4 responders and its RTTs, one per valid reply.
    by_index: dict[int, tuple[list[str], list[float]]] = {}
    ipv6 = 0
    last = None  # the last IPv4 responder seen
    for entry in hops_raw:
        if not isinstance(entry, dict) or "hop" not in entry:
            continue
        hop_no = entry["hop"]
        if type(hop_no) is not int or hop_no < 1:  # exact: a bool is no hop number
            continue
        responders, rtts = by_index.setdefault(hop_no, ([], []))
        for reply in entry.get("result", []) or []:
            try:
                responder = reply.get("from")
            except AttributeError:  # not an object
                continue
            if responder != last:  # not the last IPv4 responder again: check it
                v = version(responder) if isinstance(responder, str) else 0
                if v == 4:
                    last = responder
                else:
                    ipv6 += v == 6
                    responder = None
            if responder is not None:  # None is a timeout or not IPv4
                responders.append(responder)
            rtt = reply.get("rtt")
            if (type(rtt) is float or type(rtt) in _JSON_NUMBER) and 0 <= rtt < math.inf:
                rtts.append(float(rtt))
    hops = []
    for hop_no in sorted(by_index):
        responders, rtts = by_index[hop_no]
        if responders and rtts:
            ip = responders[0]
            if responders.count(ip) != len(responders):  # more than one responder: vote
                ip = max(responders, key=responders.count)  # the first of a tie
            rtts.sort()
            hops.append((ip, _sorted_median(rtts)))
    rt = RawTraceroute(measurement_id=str(msm), probe_id=str(prb), timestamp=ts, hops=hops)
    return rt, ipv6


def normalize(rt: RawTraceroute, diag: Diagnostics | None = None) -> CleanPath | None:
    """Turn a raw traceroute into a :class:`CleanPath`, or reject it.

    Bogon responders are removed, consecutive duplicate IPs collapse onto
    the first occurrence, which keeps its RTT, and a path is rejected
    (``None``) when an IP repeats non-consecutively — a forwarding loop —
    or fewer than two hops survive.  Running the result through
    normalization again would change nothing.
    """
    return _normalize(rt, functools.cache(is_bogon), diag or Diagnostics())


def _normalize(
    rt: RawTraceroute, bogon: Callable[[str], bool], diag: Diagnostics
) -> CleanPath | None:
    """:func:`normalize` with a shared bogon test."""
    ident = f"{rt.measurement_id}-{rt.probe_id}-{rt.timestamp}"
    kept: list[tuple[str, float]] = []
    seen: set[str] = set()
    for ip, rtt in rt.hops:
        if bogon(ip) or (kept and kept[-1][0] == ip):
            continue  # a bogon, or a repeat of the hop before, which keeps its RTT
        if ip in seen:
            diag.warn("path_loop", f"{ident}: ip {ip} repeats non-consecutively")
            return None
        seen.add(ip)
        kept.append((ip, rtt))
    if len(kept) < 2:
        diag.warn("path_short", f"{ident}: fewer than 2 hops survive")
        return None
    return CleanPath(path_id=ident, hops=kept, source_traceroute=ident)


def median(values: Iterable[float]) -> float:
    """The middle value, or the mean of the middle two for an even count."""
    return _sorted_median(sorted(values))


def _sorted_median(ordered: list[float]) -> float:
    """:func:`median` of a list already in ascending order."""
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


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
    and skipped, each under the first of its faults in this order: a bad
    native record, invalid hops, a consecutive duplicate hop.  Each hop is
    checked as it is read, and each distinct address string validated once.
    """
    diag = diag or Diagnostics()
    version = functools.cache(_ip_version)
    out: list[CleanPath] = []
    for lineno, doc in _json_lines(stream, diag, "native_malformed", "bad native record"):
        try:
            path_id = doc["path_id"]
            if not isinstance(path_id, str):
                raise ValueError("path_id must be a string")
            hops: list[tuple[str, float]] = []
            invalid = duplicate = False
            last = None
            for h in doc["hops"]:
                ip, rtt = h["ip"], h["rtt"]
                if type(rtt) not in _JSON_NUMBER:  # exact: a bool is no RTT
                    raise TypeError("rtt must be a number")
                rtt = float(rtt)
                invalid = invalid or not (
                    isinstance(ip, str) and version(ip) == 4 and 0 <= rtt < math.inf
                )
                duplicate = duplicate or ip == last
                last = ip
                hops.append((ip, rtt))
        except (KeyError, TypeError, ValueError, OverflowError):
            diag.warn("native_malformed", f"line {lineno}: bad native record")
            continue
        if invalid or len(hops) < 2:
            diag.warn("native_malformed", f"line {lineno}: invalid hops")
            continue
        if duplicate:
            diag.warn("native_malformed", f"line {lineno}: consecutive duplicate hop")
            continue
        out.append(CleanPath(path_id=path_id, hops=hops, source_traceroute=path_id))
    return out


_NATIVE_ENCODER = json.JSONEncoder(separators=(",", ":"))
_quote = json.encoder.encode_basestring_ascii


def serialize_native(path: CleanPath) -> str:
    """Canonical single-line encoding; for a path that :func:`load_native`
    accepts, parsing it back is the identity.  The line is built from strings,
    byte for byte what ``_NATIVE_ENCODER`` writes: ``str`` ids and addresses
    quoted as it quotes them, finite ``float`` RTTs by ``repr``.  Any other
    value (an int or bool, NaN, ±inf, a subclass) sends the path to it."""
    hops = [
        f'{{"ip":{_quote(ip)},"rtt":{rtt!r}}}' for ip, rtt in path.hops
        if type(ip) is str and type(rtt) is float and -math.inf < rtt < math.inf
    ]
    if type(path.path_id) is str and len(hops) == len(path.hops):
        return f'{{"path_id":{_quote(path.path_id)},"hops":[{",".join(hops)}]}}'
    doc = {"path_id": path.path_id, "hops": [{"ip": ip, "rtt": rtt} for ip, rtt in path.hops]}
    return _NATIVE_ENCODER.encode(doc)


def dump_native(paths: Iterable[CleanPath], fh: TextIO) -> None:
    for path in paths:
        fh.write(serialize_native(path) + "\n")


SNAPSHOT_COLUMNS = ("ip", "source", "lat", "lon", "city", "country")


def read_csv(
    fh: TextIO, path: Path, bad_row: Callable[[int, str], object] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Each row of a strict csv reading of ``fh``, header first, with the
    file line it ends on.  A row after the header with text after a closing
    quote goes to ``bad_row(line, message)`` if given, and reading goes on at
    the next line.  Any other csv error, such as a quote still open at end
    of file or a field over csv's size limit, is a ``ValueError`` naming
    ``path:line``, the line the row starts on."""
    reader = csv.reader(fh, strict=True)
    while True:
        start = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # text after a closing quote: "... expected after ..."
            if bad_row is None or start == 1 or "expected after" not in str(exc):
                raise ValueError(f"{path}:{start}: {exc}") from exc
            bad_row(reader.line_num, str(exc))
            continue
        yield reader.line_num, row


def load_geo_snapshot(
    path: str | Path, diag: Diagnostics | None = None
) -> dict[str, list[GeoRecord]]:
    """Load a geolocation snapshot CSV (``ip,source,lat,lon,city,country``).

    Rows are read by position as ``csv.DictReader`` reads them: a repeated
    column name reads its last column, a short row lacks its missing fields,
    extra fields are ignored and blank lines skipped.  Malformed rows (text
    after a closing quote, or a bad byte in source, city or country, among
    them) and coordinate-range violations are skipped with a warning naming
    the file line the row ends on; duplicate (ip, source) rows keep the first
    occurrence.  A missing file, and a file that csv cannot read on from a
    row (see :func:`read_csv`), are fatal.
    """
    diag = diag or Diagnostics()
    version = functools.cache(_ip_version)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"geolocation snapshot not found: {path}")
    by_ip: dict[str, list[GeoRecord]] = {}
    seen: set[tuple[str, str]] = set()
    # A bad byte reads as a lone surrogate, and the check below counts its row.
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        rows = read_csv(
            fh, path, lambda line, msg: diag.warn("snapshot_malformed", f"{path}:{line}: {msg}")
        )
        column = {name: i for i, name in enumerate(next(rows, (0, []))[1])}  # a repeated name: its last
        if missing := sorted(set(SNAPSHOT_COLUMNS) - column.keys()):
            raise ValueError(f"snapshot {path} missing columns {missing}")
        at = [column[name] for name in SNAPSHOT_COLUMNS]
        pick, width = operator.itemgetter(*at), max(at) + 1
        for lineno, row in rows:
            if not row:
                continue
            if len(row) >= width:
                ip, source, lat, lon, city, country = pick(row)
            else:
                ip, source, lat, lon, city, country = [row[i] if i < len(row) else None for i in at]
            ip = (ip or "").strip()
            source = (source or "").strip()
            if version(ip) != 4 or not source:
                diag.warn("snapshot_malformed", f"{path}:{lineno}: bad ip/source")
                continue
            city = (city or "").strip()
            country = (country or "").strip().upper()
            try:
                (source + city + country).encode("utf-8")
            except UnicodeEncodeError:
                diag.warn("snapshot_malformed", f"{path}:{lineno}: not valid UTF-8")
                continue
            try:
                lat = float(lat)
                lon = float(lon)
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
            by_ip.setdefault(ip, []).append(GeoRecord(ip, source, lat, lon, city, country))
    return by_ip


def write_geo_snapshot(by_ip: dict[str, list[GeoRecord]], path: str | Path) -> Path:
    """Write a snapshot CSV with deterministic row order (atomic replace).
    If the write or the replace fails, the temporary file is deleted."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_csv(tmp, SNAPSHOT_COLUMNS, (
            (r.ip, r.source, repr(r.lat), repr(r.lon), r.city, r.country)
            for ip in sorted(by_ip, key=ip_key) for r in sorted(by_ip[ip], key=lambda r: r.source)
        ))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> Path:
    """Write ``header`` and then ``rows`` as UTF-8 CSV in csv's default dialect."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def csv_number(value: float | int | None) -> str:
    """A number as the CSV outputs write it: a float rounded to 6 places,
    an int as is, and ``None`` as ``NA``."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(round(value, 6))
    return str(value)
