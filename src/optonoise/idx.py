"""IDX binary format ingestion (the MNIST container format).

Big-endian layout: a 4-byte magic, one 4-byte big-endian size per
dimension, then the raw unsigned bytes.  Magic 0x00000803 marks a 3-D
image tensor (count, rows, cols); 0x00000801 a 1-D label vector.  Images
are flattened to a ``(count, rows*cols)`` float matrix scaled to [0, 1]
by division by 255, ready to feed a dense network.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import IdxFormatError

__all__ = ["IMAGE_MAGIC", "LABEL_MAGIC", "load_idx_images", "load_idx_labels"]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _read_be32(data: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(data):
        raise IdxFormatError(
            f"truncated IDX file: {what} needs 4 bytes at offset {offset}, "
            f"file has {len(data)}",
            offset=offset,
        )
    return struct.unpack_from(">I", data, offset)[0]


def _parse(data: bytes):
    magic = _read_be32(data, 0, "magic")
    if magic == IMAGE_MAGIC:
        count = _read_be32(data, 4, "item count")
        rows = _read_be32(data, 8, "row count")
        cols = _read_be32(data, 12, "column count")
        expected = 16 + count * rows * cols
        if len(data) < expected:
            raise IdxFormatError(
                f"truncated IDX image data: expected {expected} bytes, "
                f"file has {len(data)}",
                offset=len(data),
            )
        pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols, offset=16)
        return magic, pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    if magic == LABEL_MAGIC:
        count = _read_be32(data, 4, "item count")
        expected = 8 + count
        if len(data) < expected:
            raise IdxFormatError(
                f"truncated IDX label data: expected {expected} bytes, "
                f"file has {len(data)}",
                offset=len(data),
            )
        labels = np.frombuffer(data, dtype=np.uint8, count=count, offset=8)
        return magic, labels.astype(np.int64)
    raise IdxFormatError(f"unknown IDX magic 0x{magic:08x} at offset 0", offset=0)


def _load(path, magic: int) -> np.ndarray:
    """Parse the IDX file at ``path``; refuse any magic but ``magic``."""
    with open(path, "rb") as fh:
        data = fh.read()
    found, parsed = _parse(data)
    if found != magic:
        kind = "image" if magic == IMAGE_MAGIC else "label"
        raise IdxFormatError(
            f"expected {kind} magic 0x{magic:08x}, found 0x{found:08x}",
            offset=0,
        )
    return parsed


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file; rejects any other magic."""
    return _load(path, IMAGE_MAGIC)


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file; rejects any other magic."""
    return _load(path, LABEL_MAGIC)
