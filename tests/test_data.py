import gzip
import struct

import numpy as np
import pytest

import pau
from pau.data import (BadMagicError, DatasetHandle, DimensionError,
                      IMAGE_MAGIC, LABEL_MAGIC, IdxFormatError, TruncatedFileError,
                      load_idx, pad_images, read_idx_images, read_idx_labels,
                      synth_digits, write_dataset,
                      write_idx_images, write_idx_labels)
from conftest import find_mnist_dir


class TestIdxImages:
    def test_known_bytes_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, (4, 28, 28)).astype(np.uint8)
        path = tmp_path / "imgs"
        write_idx_images(path, raw)
        out = read_idx_images(path)
        assert out.shape == (4, 28, 28)
        assert np.array_equal(out, raw / 255.0)

    def test_gzip_transparent(self, tmp_path):
        raw = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        plain = tmp_path / "imgs"
        write_idx_images(plain, raw)
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert np.array_equal(read_idx_images(gz), raw / 255.0)

    def test_wrong_magic_on_label_file(self, tmp_path):
        path = tmp_path / "labels"
        write_idx_labels(path, np.array([1, 2, 3], dtype=np.uint8))
        with pytest.raises(BadMagicError):
            read_idx_images(path)

    def test_image_magic_on_labels_reader(self, tmp_path):
        path = tmp_path / "imgs"
        write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
        with pytest.raises(BadMagicError, match="0x00000803"):
            read_idx_labels(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "imgs"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", IMAGE_MAGIC, 10, 28, 28))
            fh.write(b"\0" * 100)
        with pytest.raises(TruncatedFileError):
            read_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(struct.pack(">I", IMAGE_MAGIC) + b"\0\0")
        with pytest.raises(TruncatedFileError):
            read_idx_images(path)

    @pytest.mark.parametrize("write,read", [
        (write_idx_images, read_idx_images), (write_idx_labels, read_idx_labels)])
    @pytest.mark.parametrize("damage,error,message", [
        (lambda gz: gz[:30], TruncatedFileError, "end-of-stream marker"),
        (lambda gz: gz[:2] + b"not a gzip stream", IdxFormatError, "corrupt gzip stream"),
    ], ids=["truncated", "not-gzip"])
    def test_damaged_gzip(self, tmp_path, write, read, damage, error, message):
        plain = tmp_path / "idx"
        write(plain, np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
              if write is write_idx_images else np.arange(40, dtype=np.uint8) % 10)
        gz = tmp_path / "idx.gz"
        gz.write_bytes(damage(gzip.compress(plain.read_bytes())))
        with pytest.raises(error, match=message) as info:
            read(gz)
        assert str(gz) in str(info.value)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "imgs"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", IMAGE_MAGIC, 2 ** 31, 28, 28))
        with pytest.raises(DimensionError):
            read_idx_images(path)

    def test_real_mnist_shape_when_available(self):
        d = find_mnist_dir()
        if d is None:
            pytest.skip("MNIST not present in this environment")
        handle = load_idx(d, "train")
        assert len(handle) == 60000
        assert handle.images.shape[1:] == (28, 28)


class TestDatasetHandle:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            DatasetHandle(np.zeros((3, 2, 2)), np.zeros(4, dtype=int))

    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            DatasetHandle(np.zeros((1, 2, 2)), np.array([11]))

    def test_subset(self):
        h = synth_digits(50, seed=0)
        s = h.subset(10)
        assert len(s) == 10
        assert np.array_equal(s.images, h.images[:10])
        with pytest.raises(ValueError):
            h.subset(51)

    def test_write_dataset_round_trip(self, tmp_path):
        h = synth_digits(20, seed=3)
        for split in ("train", "test"):   # the handle's split names the files
            write_dataset(DatasetHandle(h.images, h.labels, split), tmp_path)
            back = load_idx(tmp_path, split)
            assert np.array_equal(back.images, h.images)
            assert np.array_equal(back.labels, h.labels)

    def test_pad_images(self):
        h = synth_digits(5, seed=1)
        p = pad_images(h, 32)
        assert p.images.shape == (5, 32, 32)
        assert np.array_equal(p.images[:, 2:30, 2:30], h.images)
        assert not p.images[:, :2, :].any()

    @pytest.mark.parametrize("call,message", [
        (lambda path: pad_images(synth_digits(2, seed=1), 20), "cannot pad 28x28 down to 20x20"),
        (lambda path: write_idx_images(path, np.zeros((2, 4), dtype=np.uint8)),
         r"images must be \(N,H,W\) uint8"),
    ], ids=["pad-to-smaller", "images-not-3d"])
    def test_bad_shape_refused(self, tmp_path, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(tmp_path / "imgs")
        assert not (tmp_path / "imgs").exists()


class TestSynth:
    def test_deterministic(self):
        a = synth_digits(100, seed=9)
        b = synth_digits(100, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("seed", [4, 9])
    @pytest.mark.parametrize("n", [0, 1, 257, 1000])
    def test_blocks_keep_the_per_image_loop_bytes(self, n, seed):
        # the former body: one canvas, glyph and rounding per image
        rng = np.random.default_rng(seed)
        images = np.zeros((n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n)
        for i in range(n):
            thickness = int(rng.integers(2, 4))
            glyph = pau.data._draw_glyph(int(labels[i]), thickness)
            brightness = rng.uniform(0.55, 1.0)
            img = np.zeros((28, 28))
            dy = int(rng.integers(2, 7))
            dx = int(rng.integers(4, 13))
            img[dy:dy + 20, dx:dx + 12] = glyph * brightness
            img += rng.normal(0.0, pau.data.SYNTH_PIXEL_NOISE, (28, 28))
            np.clip(img, 0.0, 1.0, out=img)
            images[i] = np.round(img * 255.0).astype(np.uint8)
        h = synth_digits(n, seed=seed)
        assert h.images.tobytes() == (images / 255.0).tobytes()
        assert h.labels.tobytes() == labels.tobytes()

    def test_empty(self):
        h = synth_digits(0)
        assert len(h) == 0

    def test_all_ten_classes_present(self):
        h = synth_digits(500, seed=2)
        assert set(h.labels.tolist()) == set(range(10))
