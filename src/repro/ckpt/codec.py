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

:class:`ChunkCodec` is the second, byte-level tier: lossless
compression applied per *chunk* at the dedup store's chunk boundary.
Chunks stay content-addressed by their **uncompressed** SHA-256 digest
(so dedup ratios are untouched by the codec choice); only the on-disk
representation shrinks.  zstd is preferred when the optional
``zstandard`` module is importable, ``lz4`` next; the always-available
fallback is stdlib ``zlib``, so tier-1 never gains a hard dependency.
All three accept a *raw content dictionary* (``zlib``'s ``zdict``;
zstd consumes the same bytes as a raw-content dict), and
:func:`train_dictionary` builds one from sampled chunks of the dedup
corpus with a deterministic stdlib n-gram trainer.

Encoded chunk files carry a tiny self-describing frame (codec tag,
optional dictionary digest, raw length) so ``fsck`` and restore can
decode any chunk regardless of the codec the store is currently
configured with.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

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
# Chunk codecs: lossless per-chunk compression at the dedup boundary.
# ---------------------------------------------------------------------------

#: File-name suffix for encoded chunk files in the dedup object store
#: (``objects/<hh>/<digest>.z``).  The digest in the name is always the
#: digest of the *uncompressed* chunk.
ENCODED_CHUNK_SUFFIX = ".z"

#: One-byte codec tags used in the encoded-chunk frame header.  Tags are
#: append-only: a store written with any codec must stay readable.
CODEC_TAGS: Dict[str, int] = {"zlib": 1, "zstd": 2, "lz4": 3}
_TAG_NAMES: Dict[int, str] = {tag: name for name, tag in CODEC_TAGS.items()}

#: Chunks smaller than this are never worth the frame overhead.
_MIN_ENCODE_BYTES = 64


class ChunkCodecError(ValueError):
    """Raised for malformed encoded-chunk frames or decode failures."""


class CodecUnavailable(RuntimeError):
    """Requested codec's optional module is not importable."""


def _module_available(name: str) -> bool:
    try:
        __import__(name)
        return True
    except ImportError:
        return False


def dictionary_digest(dictionary: bytes) -> str:
    """Content address of a trained dictionary (SHA-256 hex)."""
    return hashlib.sha256(dictionary).hexdigest()


class ChunkCodec:
    """Base class: lossless per-chunk compression with streaming encode.

    ``encode_parts`` consumes a chunk as the zero-copy buffer parts the
    save pipeline already has (:meth:`PayloadFrames.chunk_slices`) — the
    codec streams them through its compressor, so compression adds **no
    staging copy**.  ``decode`` inverts a full encoded payload (the
    frame body, without the header — see :func:`encode_chunk_file` /
    :func:`decode_chunk_file` for the framed form).

    Subclasses set ``name``/``tag`` and implement ``_compressor`` /
    ``_decompressor`` returning zlib-like streaming objects.
    """

    name = "none"
    tag = 0

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        self.level = level
        self.dictionary = bytes(dictionary) if dictionary else None
        self.dict_digest = dictionary_digest(self.dictionary) if self.dictionary else None
        self.stats = CodecStats()
        self._stats_lock = threading.Lock()

    # -- streaming primitives (overridden per codec) --------------------
    def _compressor(self):
        raise NotImplementedError

    def _decompressor(self):
        raise NotImplementedError

    # -- public API -----------------------------------------------------
    def _count(self, raw: int, encoded: int) -> None:
        # Several codec threads encode through one instance.
        with self._stats_lock:
            self.stats.raw_bytes += raw
            self.stats.encoded_bytes += encoded

    def encode_parts(self, parts: Sequence[Frame]) -> bytes:
        """Compress a chunk given as buffer parts (no concatenation)."""
        comp = self._compressor()
        out: List[bytes] = [comp.compress(part) for part in parts]
        out.append(comp.flush())
        encoded = b"".join(out)
        self._count(sum(len(part) for part in parts), len(encoded))
        return encoded

    def encode(self, data: Union[bytes, memoryview]) -> bytes:
        return self.encode_parts([data])

    def decode(self, data: Union[bytes, memoryview]) -> bytes:
        decomp = self._decompressor()
        raw = decomp.decompress(bytes(data))
        tail = getattr(decomp, "flush", lambda: b"")()
        return raw + tail if tail else raw


class ZlibChunkCodec(ChunkCodec):
    """stdlib fallback codec — always available, dictionary-capable."""

    name = "zlib"
    tag = CODEC_TAGS["zlib"]

    #: Level 1 keeps the codec on the save hot path: ~5x faster than the
    #: zlib default at a modest ratio cost, and the ratio gap narrows
    #: further with a trained dictionary.
    DEFAULT_LEVEL = 1

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        super().__init__(self.DEFAULT_LEVEL if level is None else level, dictionary)

    def _compressor(self):
        if self.dictionary:
            return zlib.compressobj(self.level, zlib.DEFLATED, zlib.MAX_WBITS,
                                    zlib.DEF_MEM_LEVEL, zlib.Z_DEFAULT_STRATEGY,
                                    self.dictionary)
        return zlib.compressobj(self.level)

    def _decompressor(self):
        if self.dictionary:
            return zlib.decompressobj(zlib.MAX_WBITS, self.dictionary)
        return zlib.decompressobj()


class ZstdChunkCodec(ChunkCodec):
    """zstd codec (preferred) — requires the optional ``zstandard`` module."""

    name = "zstd"
    tag = CODEC_TAGS["zstd"]
    DEFAULT_LEVEL = 3

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        if not _module_available("zstandard"):
            raise CodecUnavailable("zstandard module not installed")
        super().__init__(self.DEFAULT_LEVEL if level is None else level, dictionary)
        import zstandard

        self._zstandard = zstandard
        # A raw-content dictionary: the same bytes zlib uses as zdict.
        self._dict = (
            zstandard.ZstdCompressionDict(self.dictionary) if self.dictionary else None
        )

    def _compressor(self):
        kwargs = {"level": self.level}
        if self._dict is not None:
            kwargs["dict_data"] = self._dict
        return self._zstandard.ZstdCompressor(**kwargs).compressobj()

    def _decompressor(self):
        kwargs = {}
        if self._dict is not None:
            kwargs["dict_data"] = self._dict
        return self._zstandard.ZstdDecompressor(**kwargs).decompressobj()

    def decode(self, data: Union[bytes, memoryview]) -> bytes:
        decomp = self._decompressor()
        return decomp.decompress(bytes(data))


class LZ4ChunkCodec(ChunkCodec):
    """lz4 frame codec — requires the optional ``lz4`` module."""

    name = "lz4"
    tag = CODEC_TAGS["lz4"]
    DEFAULT_LEVEL = 0

    def __init__(self, level: Optional[int] = None, dictionary: Optional[bytes] = None) -> None:
        if not _module_available("lz4.frame"):
            raise CodecUnavailable("lz4 module not installed")
        # lz4.frame has no streaming-dictionary API; dictionaries are a
        # zlib/zstd feature.  Accept and ignore with a warning so codec
        # specs stay interchangeable.
        if dictionary:
            warnings.warn("lz4 codec does not support dictionaries; ignoring",
                          RuntimeWarning, stacklevel=2)
        super().__init__(self.DEFAULT_LEVEL if level is None else level, None)
        import lz4.frame

        self._lz4 = lz4.frame

    def encode_parts(self, parts: Sequence[Frame]) -> bytes:
        comp = self._lz4.LZ4FrameCompressor(compression_level=self.level)
        out = [comp.begin()]
        out.extend(comp.compress(bytes(part)) for part in parts)
        out.append(comp.flush())
        encoded = b"".join(out)
        self._count(sum(len(part) for part in parts), len(encoded))
        return encoded

    def decode(self, data: Union[bytes, memoryview]) -> bytes:
        return self._lz4.decompress(bytes(data))


def available_chunk_codecs() -> List[str]:
    """Names accepted by :func:`make_chunk_codec` on this interpreter."""
    names = ["none", "zlib"]
    if _module_available("zstandard"):
        names.append("zstd")
    if _module_available("lz4.frame"):
        names.append("lz4")
    names.append("auto")
    return names


def make_chunk_codec(
    name: Optional[str],
    level: Optional[int] = None,
    dictionary: Optional[bytes] = None,
) -> Optional[ChunkCodec]:
    """Build a chunk codec by name, degrading gracefully.

    ``None``/``"none"`` → no codec.  ``"auto"`` picks the best codec
    present (zstd > lz4 > zlib) silently.  Asking for ``"zstd"`` or
    ``"lz4"`` on a box without the optional module falls back to the
    stdlib ``zlib`` codec with a :class:`RuntimeWarning` instead of
    failing — tier-1 must stay green with no compression deps installed.
    """
    if name is None or name == "none":
        return None
    if name == "auto":
        for cls in (ZstdChunkCodec, LZ4ChunkCodec, ZlibChunkCodec):
            try:
                return cls(level, dictionary)
            except CodecUnavailable:
                continue
        raise AssertionError("zlib codec is always available")
    if name == "zlib":
        return ZlibChunkCodec(level, dictionary)
    if name in ("zstd", "lz4"):
        cls = ZstdChunkCodec if name == "zstd" else LZ4ChunkCodec
        try:
            return cls(level, dictionary)
        except CodecUnavailable:
            warnings.warn(
                f"chunk codec {name!r} unavailable (optional module not "
                f"installed); falling back to zlib",
                RuntimeWarning,
                stacklevel=2,
            )
            return ZlibChunkCodec(None, dictionary)
    raise ValueError(f"unknown chunk codec {name!r}")


# -- encoded-chunk framing --------------------------------------------------
#
# File body of an ``objects/<hh>/<digest>.z`` chunk:
#
#   u8 codec tag | u8 flags (bit0: has dictionary)
#   [32-byte dictionary SHA-256, iff bit0]
#   u64 raw (uncompressed) length, little-endian
#   compressed payload
#
# The digest in the *file name* is the digest of the uncompressed chunk —
# content addressing is codec-independent by construction.

_FRAME_HEAD = struct.Struct("<BB")
_FRAME_LEN = struct.Struct("<Q")


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
    head = _FRAME_HEAD.pack(codec.tag, 1 if codec.dictionary else 0)
    if codec.dictionary:
        head += bytes.fromhex(codec.dict_digest)
    head += _FRAME_LEN.pack(raw_len)
    if len(head) + len(encoded) >= raw_len:
        return None
    return head + encoded


def decode_chunk_file(
    data: Union[bytes, memoryview],
    dictionary_loader: Optional[Callable[[str], bytes]] = None,
    _codec_cache: Optional[Dict[tuple, ChunkCodec]] = None,
) -> bytes:
    """Decode an encoded chunk file body back to raw chunk bytes.

    Dispatches on the frame's codec tag — a store stays readable under a
    different configured codec than it was written with.
    ``dictionary_loader`` maps a dictionary digest to its bytes (the
    dedup store keeps trained dictionaries content-addressed next to the
    chunks); it is only consulted when the frame references one.
    ``_codec_cache`` lets hot readers reuse codec instances keyed by
    (tag, dict digest).
    """
    view = memoryview(data)
    if len(view) < _FRAME_HEAD.size + _FRAME_LEN.size:
        raise ChunkCodecError("encoded chunk truncated: header missing")
    tag, flags = _FRAME_HEAD.unpack_from(view, 0)
    offset = _FRAME_HEAD.size
    dict_digest = None
    if flags & 1:
        if len(view) < offset + 32 + _FRAME_LEN.size:
            raise ChunkCodecError("encoded chunk truncated: dictionary digest missing")
        dict_digest = bytes(view[offset:offset + 32]).hex()
        offset += 32
    (raw_len,) = _FRAME_LEN.unpack_from(view, offset)
    offset += _FRAME_LEN.size
    name = _TAG_NAMES.get(tag)
    if name is None:
        raise ChunkCodecError(f"unknown codec tag {tag}")
    key = (tag, dict_digest)
    codec = _codec_cache.get(key) if _codec_cache is not None else None
    if codec is None:
        dictionary = None
        if dict_digest is not None:
            if dictionary_loader is None:
                raise ChunkCodecError(
                    f"chunk needs dictionary {dict_digest[:16]} but no loader given"
                )
            dictionary = dictionary_loader(dict_digest)
        try:
            codec = make_chunk_codec(name, dictionary=dictionary)
        except CodecUnavailable as exc:  # pragma: no cover - env specific
            raise ChunkCodecError(f"codec {name!r} needed to read chunk: {exc}") from exc
        if _codec_cache is not None:
            _codec_cache[key] = codec
    try:
        raw = codec.decode(view[offset:])
    except ChunkCodecError:
        raise
    except Exception as exc:
        raise ChunkCodecError(f"chunk decode failed ({name}): {exc}") from exc
    if len(raw) != raw_len:
        raise ChunkCodecError(
            f"chunk decode length mismatch: header says {raw_len}, got {len(raw)}"
        )
    return raw


def train_dictionary(
    samples: Sequence[Union[bytes, memoryview]],
    max_bytes: int = 16 * 1024,
    gram_bytes: int = 16,
) -> bytes:
    """Train a raw-content compression dictionary from sample chunks.

    A deterministic stdlib trainer: count fixed-size grams across the
    samples (strided to bound work), keep the highest-value grams, and
    concatenate them with the most frequent **last** — zlib resolves
    matches against later ``zdict`` positions more cheaply, and zstd
    accepts the same bytes as a raw-content dictionary, so one trained
    blob serves every codec tier.  When the ``zstandard`` module is
    present its COVER trainer is used instead (better dictionaries,
    same contract).

    Returns ``b""`` when the samples are too small to train from; the
    caller should treat that as "no dictionary".
    """
    corpus = [bytes(sample) for sample in samples if len(sample) >= gram_bytes]
    if not corpus or sum(map(len, corpus)) < 4 * gram_bytes:
        return b""
    if _module_available("zstandard"):
        import zstandard

        try:
            trained = zstandard.train_dictionary(max_bytes, corpus)
            return trained.as_bytes()
        except zstandard.ZstdError:
            pass  # tiny/degenerate corpora: fall through to the stdlib trainer
    # Bound total scanned bytes so training stays O(MB) regardless of
    # corpus size; the stride keeps coverage spread across each sample.
    budget = 2 * 1024 * 1024
    stride = max(1, (sum(map(len, corpus)) * gram_bytes) // budget)
    counts: Counter = Counter()
    for sample in corpus:
        for pos in range(0, len(sample) - gram_bytes + 1, stride):
            counts[sample[pos:pos + gram_bytes]] += 1
    repeated = [(count, gram) for gram, count in counts.items() if count > 1]
    if not repeated:
        return b""
    # Most frequent last; ties broken by gram bytes for determinism.
    repeated.sort(key=lambda item: (item[0], item[1]))
    keep = max_bytes // gram_bytes
    return b"".join(gram for _, gram in repeated[-keep:])


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
