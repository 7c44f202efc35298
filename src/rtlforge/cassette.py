"""Cassette files: recorded LLM request/response pairs for offline replay.

A cassette is JSON Lines, one object per recorded call:

    {"key": ..., "tag": ..., "request_digest": ..., "completions": [...],
     "recorded_at": ...}

The fields are those of ``CassetteEntry``, which writes and reads each line.
``completions`` is the reply as the backend gave it, which may hold fewer
completions than requested, or none, or empty ones: the gateway rejects such
a reply on replay as it did when it was recorded.
``key`` is ``replay_key(tag, request_digest)``, the one spelling of the key,
where the digest is a SHA-256 over every field of each message and of the
sampling parameters (see gateway.request_digest). The digest deliberately
excludes the model id and the timestamp, so a cassette survives a model
rename but loudly misses when a prompt template changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import EngineError


class CassetteError(EngineError):
    """Cassette file is missing, unreadable, or structurally invalid."""


@dataclass(frozen=True)
class CassetteEntry:
    key: str
    tag: str
    request_digest: str
    completions: tuple[str, ...]
    recorded_at: str

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def replay_key(tag: str, request_digest: str) -> str:
    """The replay key of a request: ``<tag>:<request_digest>``."""
    return f"{tag}:{request_digest}"


def _entry_from_obj(obj, line_no: int) -> CassetteEntry:
    if not isinstance(obj, dict):
        raise CassetteError(f"cassette line {line_no}: entry must be a JSON object")
    names = [f.name for f in fields(CassetteEntry)]
    for name in names:
        if name not in obj:
            raise CassetteError(f"cassette line {line_no}: missing field {name!r}")
    completions = obj["completions"]
    if not isinstance(completions, list) or not all(isinstance(c, str) for c in completions):
        raise CassetteError(f"cassette line {line_no}: completions must be a list of strings")
    text = {name: str(obj[name]) for name in names if name != "completions"}
    return CassetteEntry(completions=tuple(completions), **text)


def iter_entries(path: str | Path):
    """Yield (line_no, CassetteEntry) for every line of the cassette.

    A final line with no trailing newline that does not parse is what a
    crash in the middle of an append leaves; its error says so.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    if not raw.endswith("\n"):  # only the last line can lack one
                        message = f"cassette line {line_no}: truncated final line ({exc})"
                    else:
                        message = f"cassette line {line_no}: invalid JSON ({exc})"
                    raise CassetteError(message) from exc
                yield line_no, _entry_from_obj(obj, line_no)
    except (OSError, UnicodeDecodeError) as exc:
        raise CassetteError(f"cannot read cassette {path}: {exc}") from exc


def load_cassette(path: str | Path) -> dict[str, CassetteEntry]:
    """Load a cassette into a key-indexed map. Later duplicates win."""
    entries: dict[str, CassetteEntry] = {}
    for _, entry in iter_entries(path):
        entries[entry.key] = entry
    return entries


def open_for_append(path: str | Path):
    """Open the cassette for appending, creating its directory if needed.

    A final line with no newline is what a crash in the middle of an append
    leaves. It is cut back to the last newline first, so the next entry
    starts a line of its own instead of corrupting that one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as fh:
        fh.seek(0)
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)
    return path.open("a", encoding="utf-8")


def verify_cassette(path: str | Path) -> tuple[list[str], int]:
    """Integrity-check a cassette; returns its problems (empty = clean) and its key count.

    Checks per entry: required fields present, key consistent with
    tag/request_digest, and no duplicate keys across the file. A truncated
    final line is reported by its line number.
    """
    problems: list[str] = []
    seen: dict[str, int] = {}
    try:
        for line_no, entry in iter_entries(path):
            expected_key = replay_key(entry.tag, entry.request_digest)
            if entry.key != expected_key:
                problems.append(
                    f"line {line_no}: key {entry.key!r} does not match tag:digest {expected_key!r}"
                )
            if entry.key in seen:
                problems.append(
                    f"line {line_no}: duplicate key {entry.key!r} (first at line {seen[entry.key]})"
                )
            else:
                seen[entry.key] = line_no
    except CassetteError as exc:
        problems.append(str(exc))
    return problems, len(seen)
