"""Precision codec tests (checkpoint compression extension)."""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import (
    DEFAULT_FIELD_DTYPES,
    InMemoryKVStore,
    PrecisionCodec,
    roundtrip_error,
)
from repro.ckpt.serializer import entry_nbytes


def sample_entry(scale=1.0, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "master": rng.normal(0.0, scale, size),
        "m": rng.normal(0.0, scale * 0.01, size),
        "v": np.abs(rng.normal(0.0, scale * 0.001, size)),
        "step": np.asarray(7),
    }


class TestEncode:
    def test_downcasts_configured_fields(self):
        codec = PrecisionCodec()
        encoded = codec.encode(sample_entry())
        assert encoded["master"].dtype == np.float32
        assert encoded["m"].dtype == np.float16
        assert encoded["v"].dtype == np.float16

    def test_integers_pass_through(self):
        codec = PrecisionCodec()
        encoded = codec.encode(sample_entry())
        assert encoded["step"].dtype.kind in "iu"
        assert int(np.asarray(encoded["step"]).reshape(-1)[0]) == 7

    def test_unconfigured_fields_untouched(self):
        codec = PrecisionCodec(field_dtypes={"m": np.float16})
        entry = sample_entry()
        encoded = codec.encode(entry)
        assert encoded["master"].dtype == np.float64

    def test_size_reduction(self):
        codec = PrecisionCodec()
        entry = sample_entry(size=512)
        encoded = codec.encode(entry)
        assert entry_nbytes(encoded) < entry_nbytes(entry) / 2
        assert codec.stats.ratio < 0.5

    def test_overflow_clipped_not_inf(self):
        codec = PrecisionCodec(field_dtypes={"m": np.float16})
        entry = {"m": np.array([1e10, -1e10])}
        encoded = codec.encode(entry)
        assert np.isfinite(encoded["m"]).all()

    def test_non_float_storage_dtype_rejected(self):
        with pytest.raises(ValueError):
            PrecisionCodec(field_dtypes={"m": np.int32})


class TestDecode:
    def test_restores_work_dtype(self):
        codec = PrecisionCodec()
        decoded = codec.decode(codec.encode(sample_entry()))
        assert decoded["master"].dtype == np.float64
        assert decoded["m"].dtype == np.float64

    def test_roundtrip_error_bounded(self):
        codec = PrecisionCodec()
        error = roundtrip_error(sample_entry(scale=2.0), codec)
        # float16 has ~3 decimal digits: relative error below 1e-3
        assert error < 1e-3

    def test_fp32_only_codec_tighter(self):
        codec = PrecisionCodec(field_dtypes={name: np.float32 for name in ("master", "m", "v")})
        error = roundtrip_error(sample_entry(scale=2.0), codec)
        assert error < 1e-6

    def test_max_relative_error_reflects_narrowest(self):
        wide = PrecisionCodec(field_dtypes={"m": np.float32})
        narrow = PrecisionCodec(field_dtypes={"m": np.float16})
        assert narrow.max_relative_error() > wide.max_relative_error()


class TestStoreComposition:
    def test_codec_through_kvstore(self):
        codec = PrecisionCodec()
        store = InMemoryKVStore()
        entry = sample_entry(size=256)
        store.put("k", codec.encode(entry), stamp=1)
        restored = codec.decode(store.get("k"))
        assert restored["master"].dtype == np.float64
        assert np.allclose(restored["master"], entry["master"], rtol=1e-6)
        assert np.allclose(restored["m"], entry["m"], rtol=1e-3, atol=1e-6)

    def test_encoded_store_smaller(self):
        codec = PrecisionCodec()
        plain, encoded = InMemoryKVStore(), InMemoryKVStore()
        entry = sample_entry(size=1024)
        plain.put("k", entry, stamp=0)
        encoded.put("k", codec.encode(entry), stamp=0)
        assert encoded.total_bytes() < plain.total_bytes() / 2


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(1e-2, 100.0),
    seed=st.integers(0, 200),
)
def test_property_roundtrip_error_within_dtype_bound(scale, seed):
    """For values in float16's *normal* range, round-trip error stays
    within a small multiple of the unit roundoff.  (Subnormals — values
    below ~6e-5 — have unboundedly large relative error by construction,
    which is why the default codec keeps the master copy at float32.)"""
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(0.1 * scale, scale, 64)
    signs = rng.choice([-1.0, 1.0], 64)
    entry = {"master": magnitudes * signs, "m": magnitudes, "v": magnitudes}
    codec = PrecisionCodec()
    error = roundtrip_error(entry, codec)
    assert error <= 4 * codec.max_relative_error()


def test_subnormal_values_documented_hazard():
    """Below float16's normal range, relative error blows up — the
    reason moments (which can be tiny) default to fp16 only because the
    optimizer tolerates it, while the master stays fp32."""
    codec = PrecisionCodec(field_dtypes={"m": np.float16})
    entry = {"m": np.array([1e-7, 2e-7])}
    assert roundtrip_error(entry, codec) > 4 * codec.max_relative_error()


# ---------------------------------------------------------------------------
# Chunk codec: lossless per-chunk compression at the dedup boundary.
# ---------------------------------------------------------------------------

from repro.ckpt import (  # noqa: E402 - grouped with the tier they test
    ChunkCodecError,
    DedupBackend,
    decode_chunk_file,
    encode_chunk_file,
    make_chunk_codec,
)

#: SHA-256 of the framed zlib body of :func:`pinned_chunk`; a change
#: here means chunk files written before it are no longer reproduced.
PINNED_FRAME_SHA256 = "64d3b8e91de1f2a180c6702453f3829c9e5d965375171cb3e953277fad5673b1"


def compressible_chunk(size=1024, seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    body = rng.standard_normal(size // 8).copy()
    body[::3] = 0.0
    return body.tobytes()


def pinned_chunk() -> bytes:
    """A fixed 4 KiB compressible chunk built without a random source."""
    return b"".join(struct.pack("<d", (i % 17) / 4) for i in range(512))


class TestChunkCodec:
    def test_framed_roundtrip_is_exact(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk()
        body = encode_chunk_file(codec, [raw])
        assert body is not None and len(body) < len(raw)
        assert decode_chunk_file(body) == raw

    def test_zlib_frame_bytes_are_pinned(self):
        raw = pinned_chunk()
        body = encode_chunk_file(make_chunk_codec("zlib"), [raw])
        # u8 tag (1: zlib) | u8 flags | u64 raw length | zlib level 1 stream
        assert body[:10] == struct.pack("<BBQ", 1, 0, len(raw))
        assert hashlib.sha256(body).hexdigest() == PINNED_FRAME_SHA256
        assert decode_chunk_file(body) == raw

    def test_encode_parts_streams_without_concatenation(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk(2048)
        parts = [memoryview(raw)[:700], memoryview(raw)[700:1500],
                 memoryview(raw)[1500:]]
        body = encode_chunk_file(codec, parts)
        assert decode_chunk_file(body) == raw

    def test_incompressible_chunk_returns_none(self):
        codec = make_chunk_codec("zlib")
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, 1024, dtype=np.uint8).tobytes()
        assert encode_chunk_file(codec, [raw]) is None

    def test_tiny_chunk_not_worth_framing(self):
        codec = make_chunk_codec("zlib")
        assert encode_chunk_file(codec, [b"\x00" * 32]) is None

    def test_unknown_tag_rejected(self):
        codec = make_chunk_codec("zlib")
        body = bytearray(encode_chunk_file(codec, [compressible_chunk()]))
        body[0] = 250  # unassigned codec tag
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body))

    def test_dictionary_flag_rejected(self):
        codec = make_chunk_codec("zlib")
        body = bytearray(encode_chunk_file(codec, [compressible_chunk()]))
        body[1] = 1  # the retired "has dictionary" flag
        with pytest.raises(ChunkCodecError, match="flags"):
            decode_chunk_file(bytes(body))

    def test_truncated_frame_rejected(self):
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(b"\x01")

    def test_corrupt_payload_rejected(self):
        codec = make_chunk_codec("zlib")
        body = bytearray(encode_chunk_file(codec, [compressible_chunk()]))
        body[-1] ^= 0xFF
        with pytest.raises(ChunkCodecError):
            decode_chunk_file(bytes(body))

    def test_none_names_build_no_codec(self):
        assert make_chunk_codec(None) is None
        assert make_chunk_codec("none") is None

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError):
            make_chunk_codec("snappy")

    def test_retired_codec_names_rejected(self):
        for name in ("auto", "zstd", "lz4"):
            with pytest.raises(ValueError):
                make_chunk_codec(name)

    def test_length_mismatch_rejected(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk()
        body = bytearray(encode_chunk_file(codec, [raw]))
        body[2:10] = struct.pack("<Q", len(raw) + 1)
        with pytest.raises(ChunkCodecError, match="length mismatch"):
            decode_chunk_file(bytes(body))

    def test_header_without_stream_rejected(self):
        with pytest.raises(ChunkCodecError, match="zlib"):
            decode_chunk_file(struct.pack("<BBQ", 1, 0, 128))

    def test_decode_takes_a_memoryview_and_ignores_its_second_argument(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk()
        body = encode_chunk_file(codec, [raw])

        def loader(digest):
            raise AssertionError("no frame references a dictionary")

        assert decode_chunk_file(memoryview(body), loader) == raw

    def test_encode_is_independent_of_part_boundaries(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk(32768)
        view = memoryview(raw)
        split = codec.encode_parts([view[:700], view[700:15000], view[15000:]])
        assert split == codec.encode(raw)

    def test_smallest_framed_chunk(self):
        codec = make_chunk_codec("zlib")
        assert encode_chunk_file(codec, [b"\x00" * 63]) is None
        body = encode_chunk_file(codec, [b"\x00" * 64])
        assert body is not None and decode_chunk_file(body) == b"\x00" * 64

    def test_stats_count_raw_and_encoded_bytes(self):
        codec = make_chunk_codec("zlib")
        assert codec.stats.ratio == 1.0  # nothing encoded yet
        chunks = [compressible_chunk(seed=seed) for seed in range(3)]
        encoded = [codec.encode(chunk) for chunk in chunks]
        assert codec.stats.raw_bytes == sum(len(chunk) for chunk in chunks)
        assert codec.stats.encoded_bytes == sum(len(body) for body in encoded)
        assert codec.stats.ratio < 1.0

    def test_stats_are_exact_under_concurrent_encodes(self):
        codec = make_chunk_codec("zlib")
        raw = compressible_chunk(4096)
        size = len(codec.encode(raw))
        codec.stats.raw_bytes = codec.stats.encoded_bytes = 0
        threads, rounds = 4, 50

        def encode_many():
            for _ in range(rounds):
                codec.encode(raw)

        workers = [threading.Thread(target=encode_many) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert codec.stats.raw_bytes == threads * rounds * len(raw)
        assert codec.stats.encoded_bytes == threads * rounds * size

    def test_codec_error_is_a_value_error(self):
        assert issubclass(ChunkCodecError, ValueError)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=2048), zero_every=st.integers(1, 8))
def test_property_framed_chunk_roundtrips_or_stays_raw(data, zero_every):
    """Every chunk either stays raw or frames smaller than itself and
    decodes back to exactly its bytes."""
    raw = bytes(0 if i % zero_every == 0 else b for i, b in enumerate(data))
    body = encode_chunk_file(make_chunk_codec("zlib"), [raw])
    if body is not None:
        assert len(body) < len(raw)
        assert decode_chunk_file(body) == raw


class TestChunkCodecInDedupStore:
    """Raw and encoded chunk files share one object store: which form a
    chunk takes depends on the codec that wrote it, never on the reader."""

    CHUNK = 256

    def entry(self, seed=0):
        return {"x": np.frombuffer(compressible_chunk(4096, seed=seed), dtype=np.float64)}

    def test_unknown_codec_name_rejected_by_the_store(self, tmp_path):
        with pytest.raises(ValueError):
            DedupBackend(str(tmp_path), codec="zstd")

    def test_encoded_chunks_read_back_without_a_codec(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=self.CHUNK, codec="zlib")
        store.put("zipped", self.entry(0), stamp=1)
        assert store.chunks.encoded_digests()
        store.close()
        store = DedupBackend(str(tmp_path), chunk_bytes=self.CHUNK, codec="none")
        store.put("plain", self.entry(1), stamp=2)
        assert store.chunks.chunks_encoded == 0  # a codec-less store writes raw
        for key, seed in (("zipped", 0), ("plain", 1)):
            assert np.array_equal(store.get(key)["x"], self.entry(seed)["x"])
        report = store.fsck()
        assert report.ok and report.encoded_chunks > 0
        store.close()

    def test_a_raw_chunk_is_a_dedup_hit_for_a_codec_store(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=self.CHUNK)
        store.put("a", self.entry(), stamp=1)
        store.close()
        store = DedupBackend(str(tmp_path), chunk_bytes=self.CHUNK, codec="zlib")
        store.put("b", self.entry(), stamp=2)
        assert store.chunks.chunks_written == 0
        assert store.chunks.encoded_digests() == []
        assert np.array_equal(store.get("b")["x"], self.entry()["x"])
        store.close()
