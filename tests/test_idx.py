"""IDX container parsing: exact bytes in, exact floats out."""

import struct

import numpy as np
import pytest

from optonoise import IdxFormatError, load_idx_images, load_idx_labels
from optonoise.idx import IMAGE_MAGIC, LABEL_MAGIC


def image_bytes(count, rows, cols, pixels):
    return struct.pack(">IIII", IMAGE_MAGIC, count, rows, cols) + bytes(pixels)


def label_bytes(labels):
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + bytes(labels)


class TestImages:
    def test_hand_built_fixture_exact_floats(self, tmp_path):
        pixels = [0, 255, 128, 64, 1, 2, 3, 4]
        path = tmp_path / "img.idx"
        path.write_bytes(image_bytes(2, 2, 2, pixels))
        images = load_idx_images(path)
        assert images.shape == (2, 4)
        np.testing.assert_array_equal(
            images,
            np.array(pixels, dtype=np.float64).reshape(2, 4) / 255.0,
        )

    def test_magic_only_file_is_truncated(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">I", IMAGE_MAGIC))
        with pytest.raises(IdxFormatError) as exc:
            load_idx_images(path)
        assert exc.value.offset == 4

    def test_truncated_pixels_report_offset(self, tmp_path):
        path = tmp_path / "cut.idx"
        path.write_bytes(image_bytes(2, 2, 2, [0] * 5))
        with pytest.raises(IdxFormatError) as exc:
            load_idx_images(path)
        assert "expected 24 bytes" in str(exc.value)

    def test_label_magic_rejected_by_image_loader(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(label_bytes([1, 2, 3]))
        with pytest.raises(IdxFormatError) as exc:
            load_idx_images(path)
        assert "magic" in str(exc.value)


class TestLabels:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(label_bytes([7, 0, 9, 3]))
        np.testing.assert_array_equal(load_idx_labels(path), [7, 0, 9, 3])

    def test_image_magic_rejected_by_label_loader(self, tmp_path):
        path = tmp_path / "img.idx"
        path.write_bytes(image_bytes(1, 1, 1, [255]))
        with pytest.raises(IdxFormatError):
            load_idx_labels(path)

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"xx")
        with pytest.raises(IdxFormatError) as exc:
            load_idx_labels(path)
        assert exc.value.offset == 0

