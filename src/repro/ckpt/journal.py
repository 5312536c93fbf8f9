"""The append-only JSONL journal behind every file-backed store.

The sharded store's index (``index.jsonl``), the dedup engine's
refcounts (``refs.jsonl``) and manifests (``manifests.jsonl``) and the
tiered backend's claim journal (``tier.jsonl``) are all one
:class:`Journal`: records are appended as JSON lines, replayed in order
on open, and compacted by an atomic rewrite.  Each owner folds the
replayed records into its own in-memory state.

Torn tails
----------
A crash can tear only the *final* line.  Replay stops at the first line
that lacks its newline or fails to parse and truncates the file back to
the last complete record, so a later append cannot concatenate onto the
fragment (which would make the *next* replay drop acknowledged records).

Record encoding
---------------
Every persist-tier put appends at least one record, so encoding sits on
the save path.  ``json.dumps`` on a small dict costs several
microseconds of generic-encoder overhead; :func:`encode_record` builds
the three record shapes the stores write (``put``/``del``/``ref``) with
f-strings instead (~4-5x faster) while staying **plain JSON** — replay
uses ``json.loads`` and the on-disk format is unchanged.  Strings take
the fast path only when provably safe to embed verbatim (printable
ASCII with no quote/backslash — checked, not assumed); anything else,
and any unknown record shape, falls back to ``json.dumps``.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import Callable, List, Mapping, Optional, Sequence

from ..obs.metrics import get_registry
from ..obs.trace import span as _span

# Labeled per journal ("journal"/"refs"/"manifest"/"tier") so each owner
# is accounted separately.
_JOURNAL_APPENDS = get_registry().counter(
    "moc_journal_appends_total",
    "Journal append calls (batches, not records)",
    labelnames=("journal",),
)
_JOURNAL_RECORDS = get_registry().counter(
    "moc_journal_records_total",
    "Records appended to a journal",
    labelnames=("journal",),
)
_JOURNAL_COMPACTIONS = get_registry().counter(
    "moc_journal_compactions_total",
    "Journal rewrite (compaction) passes",
    labelnames=("journal",),
)

# Anything outside printable ASCII, plus the two characters JSON strings
# must escape (" and \).  One regex scan decides the fast path.
_NEEDS_ESCAPE = re.compile(r'[^ !#-\[\]-~]')


class Journal:
    """One append-only JSONL journal file.

    ``fault`` is the owner's crash-injection seam; the journal emits
    ``<name>:mid-append`` (between the two halves of an append — the
    torn-line window), ``<name>:appended`` and
    ``<name>:compact-tmp-written``.  :meth:`append` and :meth:`rewrite`
    run under the journal's own lock, so concurrent appends never
    interleave their bytes and a rewrite never races an append.
    """

    def __init__(self, path: str, name: str, fault: Callable[[str], None]) -> None:
        self.path = path
        self.name = name
        self._fault = fault
        self._lock = threading.Lock()
        self.records = 0  # records currently in the file
        self.appends = 0  # records appended by this instance

    def replay(self) -> List[dict]:
        """Every complete record in file order; truncates a torn tail."""
        if not os.path.exists(self.path):
            return []
        out: List[dict] = []
        valid_bytes = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    # The append's acknowledgement covers the newline: a
                    # parseable tail without one is still a torn write.
                    break
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break
                valid_bytes += len(line)
                out.append(record)
        if valid_bytes < os.path.getsize(self.path):
            os.truncate(self.path, valid_bytes)
        self.records = len(out)
        return out

    def append(self, records: Sequence[dict]) -> None:
        """Append ``records`` as one write (split in two at the seam)."""
        if not records:
            return
        with self._lock, _span("journal-append", journal=self.name, records=len(records)):
            text = "".join(map(encode_record, records))
            with open(self.path, "a", encoding="utf-8") as handle:
                # Crash seam: a hook may die between the halves,
                # leaving a torn line for replay to truncate.
                half = len(text) // 2
                handle.write(text[:half])
                handle.flush()
                self._fault(f"{self.name}:mid-append")
                handle.write(text[half:])
            self.records += len(records)
            self.appends += len(records)
        _JOURNAL_APPENDS.labels(journal=self.name).inc()
        _JOURNAL_RECORDS.labels(journal=self.name).inc(len(records))
        self._fault(f"{self.name}:appended")

    def rewrite(self, records: Sequence[dict]) -> None:
        """Atomically compact the journal down to ``records``.

        A crash before the ``os.replace`` leaves the original journal
        untouched; replay ignores the stray ``.tmp``.
        """
        with self._lock, _span("journal-compact", journal=self.name, records=len(records)):
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.writelines(map(encode_record, records))
            self._fault(f"{self.name}:compact-tmp-written")
            os.replace(tmp, self.path)
            self.records = len(records)
        _JOURNAL_COMPACTIONS.labels(journal=self.name).inc()


def json_string(text: str) -> str:
    """Encode one JSON string, fast-pathing escape-free ASCII."""
    if not _NEEDS_ESCAPE.search(text):
        return f'"{text}"'
    return json.dumps(text)


def _is_clean_address(value: object) -> bool:
    """True for strings safe to embed verbatim without scanning each
    character class — hex digests and other [0-9a-zA-Z] addresses."""
    return isinstance(value, str) and value.isascii() and value.isalnum()


def _put_line(key: str, stamp: int, nbytes: int, pack: Optional[int] = None,
              off: int = 0, chunks: Optional[Sequence[str]] = None) -> str:
    """One ``{"op": "put", ...}`` line (newline included); ``pack``/``off``
    and ``chunks`` only when given.  Chunk digests must be clean
    addresses (checked by the caller)."""
    line = f'{{"op": "put", "key": {json_string(key)}, "stamp": {stamp}, "nbytes": {nbytes}'
    if pack is not None:
        line += f', "pack": {pack}, "off": {off}'
    if chunks is not None:
        if chunks:
            line += ', "chunks": ["' + '", "'.join(chunks) + '"]'
        else:
            line += ', "chunks": []'
    return line + "}\n"


def _ref_line(inc: Mapping[str, int], dec: Mapping[str, int]) -> str:
    """One refcount line; empty maps are omitted entirely."""
    parts = ['{"op": "ref"']
    for name, counts in (("inc", inc), ("dec", dec)):
        if counts:
            body = ", ".join(
                f'"{digest}": {count}' for digest, count in counts.items()
            )
            parts.append(f', "{name}": {{{body}}}')
    parts.append("}\n")
    return "".join(parts)


def _fast_put(record: Mapping[str, object]) -> Optional[str]:
    key = record.get("key")
    stamp = record.get("stamp")
    nbytes = record.get("nbytes")
    located = "pack" in record or "off" in record
    pack = record.get("pack")
    off = record.get("off", 0)
    chunks = record.get("chunks")
    if not isinstance(key, str):
        return None
    ints = (stamp, nbytes, pack, off) if located else (stamp, nbytes)
    if any(type(value) is not int for value in ints):
        return None
    if chunks is not None:
        if not isinstance(chunks, (list, tuple)) or not all(
            _is_clean_address(chunk) for chunk in chunks
        ):
            return None
    expected = 4 + 2 * located + (chunks is not None)
    if len(record) != expected:
        return None
    return _put_line(key, stamp, nbytes, pack=pack, off=off, chunks=chunks)


def _fast_del(record: Mapping[str, object]) -> Optional[str]:
    key = record.get("key")
    if len(record) != 2 or not isinstance(key, str):
        return None
    return f'{{"op": "del", "key": {json_string(key)}}}\n'


def _fast_ref(record: Mapping[str, object]) -> Optional[str]:
    inc = record.get("inc", {})
    dec = record.get("dec", {})
    if len(record) != 1 + ("inc" in record) + ("dec" in record):
        return None
    if ("inc" in record and not inc) or ("dec" in record and not dec):
        # _ref_line omits empty maps; an explicit empty map must fall
        # back so the emitted JSON matches json.dumps key-for-key.
        return None
    for counts in (inc, dec):
        if not isinstance(counts, Mapping):
            return None
        for digest, count in counts.items():
            if not _is_clean_address(digest) or type(count) is not int:
                return None
    return _ref_line(inc, dec)


_FAST_ENCODERS = {"put": _fast_put, "del": _fast_del, "ref": _fast_ref}


def encode_record(record: Mapping[str, object]) -> str:
    """Encode one journal record to its JSONL line.

    The three record shapes the stores write go to the f-string
    builders; anything else (or any field that fails the safety checks)
    is encoded by ``json.dumps`` — equivalence with which is pinned by a
    property test.
    """
    fast = _FAST_ENCODERS.get(record.get("op"))
    line = fast(record) if fast is not None else None
    if line is None:
        line = json.dumps(record) + "\n"
    return line
