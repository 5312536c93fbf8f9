"""The ``device`` layer: filesystem check and the raw sequential floor.

The floor is a plain sequential write then read of the workload's own
per-checkpoint byte count, in the workload's own directory, in the same
run — the number every save and restore throughput is printed beside.
In this sandbox these are page-cache numbers, and are labelled so.
"""

from __future__ import annotations

import fcntl
import os
import statistics
import struct
import time
from typing import Dict, Tuple

_BLOCK = 1 << 20
_REPEATS = 3
_MEMORY_FILESYSTEMS = {"tmpfs", "ramfs"}


def filesystem_of(path: str) -> Tuple[str, str]:
    """``(fstype, mountpoint)`` of the mount holding ``path``."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    with open("/proc/mounts", "r", encoding="utf-8") as handle:
        for line in handle:
            _device, mountpoint, fstype = line.split()[:3]
            mountpoint = mountpoint.replace("\\040", " ")
            inside = path == mountpoint or path.startswith(mountpoint.rstrip("/") + "/")
            # Later lines shadow earlier ones on the same mountpoint.
            if inside and len(mountpoint) >= len(best[1]):
                best = (fstype, mountpoint)
    return best


def require_real_filesystem(path: str) -> str:
    """Return the fstype of ``path``; raise on a memory filesystem."""
    fstype, mountpoint = filesystem_of(path)
    if fstype in _MEMORY_FILESYSTEMS:
        raise SystemExit(
            f"benchmarks/e2e: {path} is on {fstype} (mounted at {mountpoint}); "
            "the benchmark measures a real directory and refuses memory "
            "filesystems — run it from a checkout on a disk-backed mount"
        )
    return fstype


def spread_subdirectories(directory: str) -> None:
    """Ask ext4 to place each new subdirectory of ``directory`` in a block
    group of its own (the ``chattr +T`` top-of-hierarchy hint).

    Every run creates and deletes thousands of small files.  On a journal-less
    ext4 an inode deleted in the last minute is skipped, one by one, by every
    later ``open(O_CREAT)`` in its block group, and by default all runs of a
    checkout share one group — so a run's save timings depended on what ran
    in the minutes before it.  With the hint each run starts in a group of
    its own.  Best effort: other filesystems ignore or refuse the flag.
    """
    get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
    descriptor = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = struct.unpack("l", fcntl.ioctl(descriptor, get_flags, struct.pack("l", 0)))[0]
        fcntl.ioctl(descriptor, set_flags, struct.pack("l", flags | topdir))
    except OSError:
        pass
    finally:
        os.close(descriptor)


def proc_io() -> Dict[str, int]:
    """This process's ``/proc/self/io`` counters."""
    with open("/proc/self/io", "r", encoding="ascii") as handle:
        return {name.rstrip(":"): int(value) for name, value in map(str.split, handle)}


def _write(path: str, blocks: int, block: bytes, fsync: bool) -> float:
    begin = time.perf_counter()
    with open(path, "wb", buffering=0) as handle:
        for _ in range(blocks):
            handle.write(block)
        if fsync:
            os.fsync(handle.fileno())
    return time.perf_counter() - begin


def _read(path: str) -> float:
    buffer = bytearray(_BLOCK)
    begin = time.perf_counter()
    with open(path, "rb", buffering=0) as handle:
        while handle.readinto(buffer):
            pass
    return time.perf_counter() - begin


def probe(directory: str, nbytes: int) -> Dict[str, float]:
    """Sequential write (without, then with fsync) and read of ``nbytes``;
    each rate is the median of a few repeats."""
    blocks = max(1, nbytes // _BLOCK)
    block = os.urandom(_BLOCK)
    mib = blocks * _BLOCK / 2**20
    path = os.path.join(directory, "floor.probe")
    writes, fsyncs, reads = [], [], []
    try:
        for _ in range(_REPEATS):
            writes.append(_write(path, blocks, block, fsync=False))
            fsyncs.append(_write(path, blocks, block, fsync=True))
            reads.append(_read(path))
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {
        "device.seq_write_mib_s": mib / statistics.median(writes),
        "device.seq_write_fsync_mib_s": mib / statistics.median(fsyncs),
        "device.seq_read_mib_s": mib / statistics.median(reads),
    }


def tree_bytes(root: str) -> int:
    """Apparent size (``st_size``) of every regular file under ``root``."""
    total = 0
    for directory, _subdirs, names in os.walk(root):
        for name in names:
            try:
                total += os.lstat(os.path.join(directory, name)).st_size
            except FileNotFoundError:  # a background unlink raced the walk
                continue
    return total
