"""The append-only attestation ledger.

One ledger is one JSONL file.  Each line is one attestation entry::

    (grammar_fp, workload_fp, limits_fp, input_hash)
        -> (output_hash, stats, provenance)

where ``workload_fp`` is the projector fingerprint for a prune or the
spec+format fingerprint for an extraction.  Every field that identifies
work is a content fingerprint the codebase already computes — the entry
says *this grammar, this workload, these bounds, this exact document
produced exactly these bytes*, nothing about where or when.

Integrity is structural, not advisory:

* **self-hash** — ``entry`` is the SHA-256 of the entry's canonical JSON
  body; editing any field breaks it;
* **chain** — ``prev`` is the previous entry's self-hash (empty for the
  genesis entry), so inserting, deleting or reordering lines breaks every
  entry downstream; both are verified on every open and any mismatch
  raises :class:`~repro.errors.LedgerCorrupt`;
* **crash safety** — an entry is appended as a single ``os.write`` on an
  ``O_APPEND`` descriptor followed by ``fsync``; a writer killed mid-write
  leaves at most one torn final line (no newline), which open() truncates
  away.  Cross-process appends serialize on ``flock``; in-process appends
  on a mutex.  Before writing, the appender re-syncs its in-memory tip
  against lines other processes appended since.

A :class:`ResultStore` beside the ledger (``<path>.store/``) keeps the
output bytes content-addressed by their hash, which turns the ledger into
a dedup cache: a lookup hit whose stored bytes still match the recorded
hash can be served instead of re-pruning (`ledger.hits`), and Thm 4.5
byte-identity means the served bytes are exactly what a fresh prune would
produce.  A stored result that fails its hash re-check is *never* served.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX; in-process lock only
    fcntl = None  # type: ignore[assignment]

from repro import obs
from repro.errors import LedgerCorrupt
from repro.extract.stats import ExtractStats
from repro.ledger.canonical import (
    canonical_json,
    hash_canonical,
    hash_records,
    hash_text,
)
from repro.projection.stats import PruneStats

# The mode ``open()`` gives a new file under this process's umask (read
# once: ``os.umask`` can only be queried by setting it).
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_BLOB_MODE = 0o666 & ~_UMASK

__all__ = [
    "Ledger",
    "LedgerEntry",
    "LedgerKey",
    "ResultStore",
    "decode_stats",
    "encode_stats",
]

LedgerKey = "tuple[str, str, str, str]"


def encode_stats(stats: "PruneStats | ExtractStats") -> dict[str, Any]:
    """Stats as a canonical-JSON-safe dict, tagged with their kind."""
    kind = "extract" if isinstance(stats, ExtractStats) else "prune"
    return {"kind": kind, **stats.as_dict()}


def decode_stats(data: dict[str, Any]) -> "PruneStats | ExtractStats":
    """Rebuild the exact stats object :func:`encode_stats` flattened —
    a dedup hit must report stats ``==`` to the recorded fresh run's."""
    data = dict(data)
    kind = data.pop("kind", "prune")
    return (ExtractStats if kind == "extract" else PruneStats).from_dict(data)


@dataclass(slots=True, frozen=True)
class LedgerEntry:
    """One attested run.  Immutable; identity is the self-hash."""

    seq: int
    op: str  # "prune" | "extract"
    grammar_fp: str
    workload_fp: str
    limits_fp: str
    input_hash: str
    output_hash: str
    prev: str
    entry_hash: str
    records_hash: str | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> "tuple[str, str, str, str]":
        return (self.grammar_fp, self.workload_fp, self.limits_fp,
                self.input_hash)

    def body(self) -> dict[str, Any]:
        """The signed portion: everything but the self-hash itself."""
        body: dict[str, Any] = {
            "v": 1,
            "seq": self.seq,
            "op": self.op,
            "grammar": self.grammar_fp,
            "workload": self.workload_fp,
            "limits": self.limits_fp,
            "input": self.input_hash,
            "output": self.output_hash,
            "stats": self.stats,
            "provenance": self.provenance,
            "prev": self.prev,
        }
        if self.records_hash is not None:
            body["records"] = self.records_hash
        return body

    def compute_hash(self) -> str:
        return hash_canonical(self.body())

    def to_line(self) -> str:
        return canonical_json({**self.body(), "entry": self.entry_hash})

    @classmethod
    def from_wire(cls, data: dict[str, Any], context: str) -> "LedgerEntry":
        if not isinstance(data, dict):
            raise LedgerCorrupt(f"{context}: entry is not an object")
        if data.get("v") != 1:
            raise LedgerCorrupt(f"{context}: unknown entry version {data.get('v')!r}")
        try:
            entry = cls(
                seq=int(data["seq"]),
                op=str(data["op"]),
                grammar_fp=str(data["grammar"]),
                workload_fp=str(data["workload"]),
                limits_fp=str(data["limits"]),
                input_hash=str(data["input"]),
                output_hash=str(data["output"]),
                prev=str(data["prev"]),
                entry_hash=str(data["entry"]),
                records_hash=(
                    str(data["records"]) if "records" in data else None
                ),
                stats=dict(data.get("stats") or {}),
                provenance=dict(data.get("provenance") or {}),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise LedgerCorrupt(f"{context}: malformed entry: {error}") from error
        return entry


class ResultStore:
    """Content-addressed output bytes, one file per output hash.

    Writes are atomic (temp file + ``os.replace``) and idempotent — the
    file name *is* the content hash, so concurrent writers of the same
    result race benignly.  Reads re-verify nothing themselves; the ledger
    re-hashes every payload against the recorded entry before serving.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest + ".json")

    def put(self, digest: str, payload: dict[str, Any]) -> None:
        final = self._path(digest)
        if os.path.exists(final):
            return
        os.makedirs(self.root, exist_ok=True)
        # One temp file per writer: threads of one process recording the
        # same result at once must not share (and truncate) a file.
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(final) + ".tmp.", dir=self.root
        )
        try:
            # mkstemp makes the file owner-only; give the blob the mode
            # ``open()`` would, so other accounts can still replay it.
            os.chmod(tmp, _BLOB_MODE)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(payload))
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                os.unlink(tmp)

    def get(self, digest: str) -> dict[str, Any] | None:
        try:
            with open(self._path(digest), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None


class Ledger:
    """An open attestation ledger: verified entries in memory, the
    append fd held for the lifetime of the object.

    ``fsync=False`` trades crash-durability for speed (tests, bulk
    recording); the chain and torn-line guarantees are unaffected.
    ``store_results=False`` disables the result store — entries still
    attest, but nothing can be dedup-served.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        fsync: bool = True,
        store_results: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        self.store: ResultStore | None = (
            ResultStore(self.path + ".store") if store_results else None
        )
        self.hits = 0       # dedup hits served by this object
        self.appended = 0   # entries this object appended
        self._lock = threading.Lock()
        self._entries: list[LedgerEntry] = []
        self._index: dict[tuple[str, str, str, str], LedgerEntry] = {}
        self._tip = ""
        self._offset = 0  # bytes of verified, newline-terminated entries
        self._fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_RDWR,
                           0o644)
        try:
            with self._flocked():
                self._resync(recover=True)
        except BaseException:
            os.close(self._fd)
            raise

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __bool__(self) -> bool:
        # A ledger handle is always truthy — without this, ``if ledger:``
        # on an *empty* ledger falls through ``__len__`` to False.
        return True

    @property
    def tip(self) -> str:
        with self._lock:
            return self._tip

    @property
    def entries(self) -> list[LedgerEntry]:
        with self._lock:
            return list(self._entries)

    # -- the file --------------------------------------------------------

    @contextmanager
    def _flocked(self) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def _resync(self, recover: bool = False) -> None:
        """Absorb entries appended past our verified offset (other
        processes share the file).  Caller holds the flock.  With
        ``recover=True`` (open, or any time we hold the exclusive lock) a
        torn final line — a writer died mid-``write`` — is truncated
        away; mid-file damage is unrecoverable tampering."""
        size = os.fstat(self._fd).st_size
        if size < self._offset:
            raise LedgerCorrupt(
                f"{self.path}: file shrank below the verified offset "
                f"({size} < {self._offset})"
            )
        if size == self._offset:
            return
        data = os.pread(self._fd, size - self._offset, self._offset)
        torn = None
        if not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            data, torn = data[:cut], data[cut:]
        for raw in data.splitlines():
            self._absorb_line(raw)
            self._offset += len(raw) + 1
        if torn is not None:
            if not recover:  # pragma: no cover - only open() recovers today
                raise LedgerCorrupt(
                    f"{self.path}: torn final line outside recovery"
                )
            os.ftruncate(self._fd, self._offset)

    def _absorb_line(self, raw: bytes) -> None:
        context = f"{self.path}: entry {len(self._entries) + 1}"
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise LedgerCorrupt(f"{context}: not valid JSON") from error
        entry = LedgerEntry.from_wire(data, context)
        if entry.entry_hash != entry.compute_hash():
            raise LedgerCorrupt(
                f"{context}: self-hash mismatch (the entry was altered)"
            )
        if entry.prev != self._tip:
            raise LedgerCorrupt(
                f"{context}: chain broken (prev does not match the "
                f"preceding entry's hash)"
            )
        if entry.seq != len(self._entries) + 1:
            raise LedgerCorrupt(
                f"{context}: sequence number {entry.seq} out of order"
            )
        self._entries.append(entry)
        self._index[entry.key] = entry
        self._tip = entry.entry_hash

    # -- recording -------------------------------------------------------

    def record(
        self,
        *,
        op: str,
        grammar_fp: str,
        workload_fp: str,
        limits_fp: str,
        input_hash: str,
        output_hash: str,
        records_hash: str | None = None,
        stats: dict[str, Any] | None = None,
        provenance: dict[str, Any] | None = None,
        result: dict[str, Any] | None = None,
    ) -> LedgerEntry:
        """Append one attestation (fsync'd, chained), or — when the key
        is already recorded with the *same* output — just (re)store the
        result bytes and return the existing entry, so re-running a
        recorded workload heals a lost or corrupted store file instead of
        duplicating history."""
        appended = False
        with self._lock, self._flocked():
            self._resync(recover=True)
            key = (grammar_fp, workload_fp, limits_fp, input_hash)
            existing = self._index.get(key)
            if (
                existing is not None
                and existing.output_hash == output_hash
                and existing.records_hash == records_hash
            ):
                entry = existing
            else:
                body = {
                    "v": 1,
                    "seq": len(self._entries) + 1,
                    "op": op,
                    "grammar": grammar_fp,
                    "workload": workload_fp,
                    "limits": limits_fp,
                    "input": input_hash,
                    "output": output_hash,
                    "stats": stats or {},
                    "provenance": provenance or {},
                    "prev": self._tip,
                }
                if records_hash is not None:
                    body["records"] = records_hash
                entry_hash = hash_canonical(body)
                entry = LedgerEntry.from_wire(
                    {**body, "entry": entry_hash}, f"{self.path}: new entry"
                )
                encoded = (entry.to_line() + "\n").encode("utf-8")
                os.write(self._fd, encoded)
                if self.fsync:
                    os.fsync(self._fd)
                self._offset += len(encoded)
                self._entries.append(entry)
                self._index[entry.key] = entry
                self._tip = entry_hash
                appended = True
        if appended:
            self.appended += 1
            obs.count("ledger.records")
        if result is not None and self.store is not None:
            self.store.put(output_hash, result)
        return entry

    # -- dedup serving ---------------------------------------------------

    def lookup(self, key: "tuple[str, str, str, str]") -> LedgerEntry | None:
        """The recorded entry for a fingerprint key, if any (in-memory:
        entries verified at open plus this object's appends/resyncs)."""
        with self._lock:
            return self._index.get(key)

    def fetch(
        self,
        key: "tuple[str, str, str, str]",
        *,
        need_records: bool = False,
    ) -> "tuple[LedgerEntry, dict[str, Any]] | None":
        """A servable dedup hit: the entry *and* its stored result, with
        the stored bytes re-verified against the recorded hashes.  Any
        missing or non-matching payload is a miss, never an error — the
        caller falls back to a fresh prune (which re-heals the store)."""
        entry = self.lookup(key)
        if entry is None or self.store is None:
            return None
        payload = self.store.get(entry.output_hash)
        if payload is None or not isinstance(payload.get("text"), str):
            return None
        if hash_text(payload["text"]) != entry.output_hash:
            return None
        records = payload.get("records")
        if records is not None and not isinstance(records, list):
            return None
        if need_records and records is None:
            return None
        if entry.records_hash is not None and records is not None:
            if hash_records(records) != entry.records_hash:
                return None
        self.hits += 1
        obs.count("ledger.hits")
        return entry, payload
