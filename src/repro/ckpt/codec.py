"""Precision and chunk codecs for checkpoint entries.

The paper's conclusion calls for further algorithm-system co-design on
checkpoint efficiency; an orthogonal lever to PEC is *precision*: Adam
moments tolerate lower precision than master weights, so a checkpoint
can downcast selected fields on save and upcast on load, trading a
bounded perturbation for bytes — exactly the trade PEC makes with
staleness.

:class:`PrecisionCodec` maps entry fields to storage dtypes (for
example ``{"m": float16, "v": float16, "master": float32}``) and
round-trips entries through them.  Integer fields pass through
unchanged.  The codec composes with any KV store since stores operate
on entries.

:class:`ChunkCodec` is the second, byte-level tier: stdlib ``zlib``
at level 1 applied per *chunk* at the dedup store's chunk boundary.
Chunks stay content-addressed by their **uncompressed** SHA-256 digest
(so dedup ratios are untouched by the codec); only the on-disk
representation shrinks.  Encoded chunk files carry a ten-byte frame
(codec tag, flags, raw length) that readers check before they
decompress.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .serializer import Frame, entry_nbytes

#: Sensible default: fp32 master, fp16 moments, fp16 weights.
DEFAULT_FIELD_DTYPES: Dict[str, np.dtype] = {
    "master": np.dtype(np.float32),
    "m": np.dtype(np.float16),
    "v": np.dtype(np.float16),
    "weights": np.dtype(np.float16),
}


@dataclass
class CodecStats:
    """Byte accounting across a codec's lifetime."""

    raw_bytes: int = 0
    encoded_bytes: int = 0

    @property
    def ratio(self) -> float:
        return self.encoded_bytes / self.raw_bytes if self.raw_bytes else 1.0


class PrecisionCodec:
    """Downcast configured float fields on encode; upcast on decode.

    Fields not present in ``field_dtypes`` — and all non-float fields —
    pass through untouched.  Decoding restores ``work_dtype``
    (float64, the substrate's compute dtype) so training code never sees
    reduced precision types.
    """

    def __init__(
        self,
        field_dtypes: Optional[Mapping[str, np.dtype]] = None,
        work_dtype: np.dtype = np.dtype(np.float64),
    ) -> None:
        self.field_dtypes = dict(field_dtypes if field_dtypes is not None else DEFAULT_FIELD_DTYPES)
        for name, dtype in self.field_dtypes.items():
            if np.dtype(dtype).kind != "f":
                raise ValueError(f"field {name!r}: storage dtype must be floating")
        self.work_dtype = np.dtype(work_dtype)
        self.stats = CodecStats()

    def encode(self, entry: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Return a copy of ``entry`` with configured fields downcast.

        Downcast arrays are fresh and frozen (read-only), so the
        snapshot tier keeps them by reference like the optimizer's own
        arrays; other fields pass through as they are.
        """
        encoded: Dict[str, np.ndarray] = {}
        for name, value in entry.items():
            array = np.asarray(value)
            target = self.field_dtypes.get(name)
            if target is not None and array.dtype.kind == "f":
                array = self._safe_downcast(array, np.dtype(target))
                array.flags.writeable = False
            encoded[name] = array
        self.stats.raw_bytes += entry_nbytes(entry)
        self.stats.encoded_bytes += entry_nbytes(encoded)
        return encoded

    def decode(self, entry: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Upcast float fields back to the working dtype."""
        decoded: Dict[str, np.ndarray] = {}
        for name, value in entry.items():
            array = np.asarray(value)
            if array.dtype.kind == "f" and array.dtype != self.work_dtype:
                array = array.astype(self.work_dtype)
            decoded[name] = array
        return decoded

    @staticmethod
    def _safe_downcast(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Downcast with clipping to the target dtype's finite range.

        Without clipping, values beyond float16's ~65k range would become
        inf and poison the optimizer on restore.
        """
        info = np.finfo(dtype)
        return np.clip(array, info.min, info.max).astype(dtype)

    def max_relative_error(self) -> float:
        """Worst-case relative rounding error of the narrowest dtype."""
        narrowest = min(
            (np.dtype(d) for d in self.field_dtypes.values()),
            key=lambda d: np.finfo(d).nmant,
        )
        return 2.0 ** (-np.finfo(narrowest).nmant - 1)


# ---------------------------------------------------------------------------
# Chunk codec: lossless per-chunk compression at the dedup boundary.
# ---------------------------------------------------------------------------

#: File-name suffix for encoded chunk files in the dedup object store
#: (``objects/<hh>/<digest>.z``).  The digest in the name is always the
#: digest of the *uncompressed* chunk.
ENCODED_CHUNK_SUFFIX = ".z"

#: Chunks smaller than this are never worth the frame overhead.
_MIN_ENCODE_BYTES = 64


class ChunkCodecError(ValueError):
    """Raised for malformed encoded-chunk frames or decode failures."""


class ChunkCodec:
    """stdlib zlib per-chunk compression with streaming encode.

    ``encode_parts`` consumes a chunk as the zero-copy buffer parts the
    save pipeline already has (:meth:`PayloadFrames.chunk_slices`) — the
    codec streams them through its compressor, so compression adds **no
    staging copy**.  :func:`encode_chunk_file` / :func:`decode_chunk_file`
    add and strip the on-disk frame.
    """

    name = "zlib"
    tag = 1
    #: Level 1 keeps the codec on the save hot path: ~5x faster than the
    #: zlib default at a modest ratio cost.
    level = 1

    def __init__(self) -> None:
        self.stats = CodecStats()
        self._stats_lock = threading.Lock()

    def _count(self, raw: int, encoded: int) -> None:
        # Several codec threads encode through one instance.
        with self._stats_lock:
            self.stats.raw_bytes += raw
            self.stats.encoded_bytes += encoded

    def encode_parts(self, parts: Sequence[Frame]) -> bytes:
        """Compress a chunk given as buffer parts (no concatenation)."""
        comp = zlib.compressobj(self.level)
        out: List[bytes] = [comp.compress(part) for part in parts]
        out.append(comp.flush())
        encoded = b"".join(out)
        self._count(sum(len(part) for part in parts), len(encoded))
        return encoded

    def encode(self, data: Union[bytes, memoryview]) -> bytes:
        return self.encode_parts([data])


def make_chunk_codec(name: Optional[str]) -> Optional[ChunkCodec]:
    """``None``/``"none"`` → no codec, ``"zlib"`` → :class:`ChunkCodec`;
    any other name raises :class:`ValueError`."""
    if name is None or name == "none":
        return None
    if name == "zlib":
        return ChunkCodec()
    raise ValueError(f"unknown chunk codec {name!r}")


# -- encoded-chunk framing --------------------------------------------------
#
# File body of an ``objects/<hh>/<digest>.z`` chunk:
#
#   u8 codec tag (1: zlib) | u8 flags (always 0)
#   u64 raw (uncompressed) length, little-endian
#   zlib stream
#
# The digest in the *file name* is the digest of the uncompressed chunk —
# content addressing is codec-independent by construction.

_FRAME = struct.Struct("<BBQ")


def encode_chunk_file(codec: ChunkCodec, parts: Sequence[Frame]) -> Optional[bytes]:
    """Frame one chunk for the object store, or ``None`` if not worth it.

    Returns the complete encoded file body, or ``None`` when the chunk
    is incompressible (framed size would not beat the raw file) or too
    small to bother — the caller then stores the raw form.  The
    raw-vs-encoded decision is therefore per chunk, and a store may hold
    a mix of both.
    """
    raw_len = sum(len(part) for part in parts)
    if raw_len < _MIN_ENCODE_BYTES:
        return None
    encoded = codec.encode_parts(parts)
    if _FRAME.size + len(encoded) >= raw_len:
        return None
    return _FRAME.pack(codec.tag, 0, raw_len) + encoded


def decode_chunk_file(data: Union[bytes, memoryview], _unused: object = None) -> bytes:
    """Decode an encoded chunk file body back to raw chunk bytes.

    A frame with another tag, any flag set, a body zlib rejects or a
    length other than its header's raises :class:`ChunkCodecError`.
    ``_unused`` is ignored: it keeps working a caller in
    ``benchmarks/e2e/lifecycle.py`` (``codec_drill``) that still passes
    the store's ``load_dictionary``.
    """
    view = memoryview(data)
    if len(view) < _FRAME.size:
        raise ChunkCodecError("encoded chunk truncated: header missing")
    tag, flags, raw_len = _FRAME.unpack_from(view, 0)
    if tag != ChunkCodec.tag:
        raise ChunkCodecError(f"unknown codec tag {tag}")
    if flags:
        raise ChunkCodecError(f"unsupported chunk frame flags {flags:#x}")
    try:
        raw = zlib.decompress(view[_FRAME.size:])
    except zlib.error as exc:
        raise ChunkCodecError(f"chunk decode failed (zlib): {exc}") from exc
    if len(raw) != raw_len:
        raise ChunkCodecError(
            f"chunk decode length mismatch: header says {raw_len}, got {len(raw)}"
        )
    return raw


def roundtrip_error(entry: Mapping[str, np.ndarray], codec: PrecisionCodec) -> float:
    """Max relative error introduced by one encode/decode round trip."""
    decoded = codec.decode(codec.encode(entry))
    worst = 0.0
    for name, original in entry.items():
        original = np.asarray(original)
        if original.dtype.kind != "f":
            continue
        restored = np.asarray(decoded[name])
        denom = np.maximum(np.abs(original), 1e-12)
        worst = max(worst, float((np.abs(restored - original) / denom).max()))
    return worst
