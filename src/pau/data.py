"""Dataset loading: the big-endian IDX container plus synthetic fixtures.

IDX files hold a 4-byte magic (0x00000803 for u8 image tensors,
0x00000801 for u8 label vectors), one big-endian u32 per dimension, then
the raw payload.  Gzip-compressed files are detected transparently.
Pixels are scaled by 1/255 on load.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
_MAX_ELEMENTS = 1 << 33  # refuse dimension products past 8G entries
SYNTH_PIXEL_NOISE = 0.25  # standard deviation of synth_digits' pixel noise
SYNTH_BLOCK_IMAGES = 256  # synth_digits' canvases per block, to stay in L2

STANDARD_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class IdxFormatError(ValueError):
    """Base class for malformed IDX input."""


class BadMagicError(IdxFormatError):
    pass


class TruncatedFileError(IdxFormatError):
    pass


class DimensionError(IdxFormatError):
    pass


@dataclass
class DatasetHandle:
    """Images in [0,1] (N,H,W), integer labels (N,), and a split tag."""

    images: np.ndarray
    labels: np.ndarray
    split: str = "train"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels disagree on N")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 9]")

    def __len__(self):
        return self.images.shape[0]

    def subset(self, n: int) -> "DatasetHandle":
        if n > len(self):
            raise ValueError(f"subset of {n} from {len(self)} samples")
        return DatasetHandle(self.images[:n], self.labels[:n], self.split)

    def flat_images(self) -> np.ndarray:
        return self.images.reshape(len(self), -1)


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_header(fh, path, expected_magic, expected_dims):
    raw = fh.read(4)
    if len(raw) < 4:
        raise TruncatedFileError(f"{path}: file shorter than the magic number")
    (magic,) = struct.unpack(">I", raw)
    if magic != expected_magic:
        raise BadMagicError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    dims = []
    for _ in range(expected_dims):
        raw = fh.read(4)
        if len(raw) < 4:
            raise TruncatedFileError(f"{path}: truncated dimension header")
        dims.append(struct.unpack(">I", raw)[0])
    if int(np.prod([max(d, 1) for d in dims], dtype=np.float64)) > _MAX_ELEMENTS:
        raise DimensionError(f"{path}: dimension product {dims} too large")
    return dims


def _read_idx(path, expected_magic, expected_dims):
    """(dims, payload bytes) of a plain or gzip IDX file; a truncated or
    corrupt gzip stream raises IdxFormatError naming ``path``."""
    try:
        with _open_maybe_gzip(path) as fh:
            dims = _read_header(fh, path, expected_magic, expected_dims)
            count = math.prod(dims)
            payload = fh.read(count)
    except EOFError as exc:
        raise TruncatedFileError(f"{path}: {exc}") from exc
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise IdxFormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    if len(payload) < count:
        raise TruncatedFileError(
            f"{path}: payload {len(payload)} bytes < {count} expected")
    return dims, payload


def read_idx_images(path) -> np.ndarray:
    """(N,H,W) float64 in [0,1]; validates magic, sizes and payload length."""
    dims, payload = _read_idx(path, IMAGE_MAGIC, 3)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims).astype(np.float64) / 255.0


def read_idx_labels(path) -> np.ndarray:
    _, payload = _read_idx(path, LABEL_MAGIC, 1)
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def _resolve(directory, name):
    for candidate in (name, name + ".gz"):
        p = Path(directory) / candidate
        if p.exists():
            return p
    raise FileNotFoundError(f"{name}[.gz] not found under {directory}")


def load_idx(directory, split: str = "train") -> DatasetHandle:
    """Load a standard-named IDX pair (optionally .gz) from a directory;
    a bad label or sample count raises IdxFormatError naming the file."""
    img_name, lbl_name = STANDARD_FILES[split]
    images = read_idx_images(_resolve(directory, img_name))
    label_path = _resolve(directory, lbl_name)
    labels = read_idx_labels(label_path)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise IdxFormatError(f"{label_path}: label {labels[bad[0]]} at index {bad[0]}; "
                             f"labels must lie in [0, 9]")
    if len(images) != len(labels):
        raise IdxFormatError(f"{directory}: {len(images)} {split} images and "
                             f"{len(labels)} labels; images and labels disagree on N")
    return DatasetHandle(images, labels, split)


def write_idx_images(path, images_u8: np.ndarray) -> None:
    arr = np.ascontiguousarray(images_u8, dtype=np.uint8)
    if arr.ndim != 3:
        raise ValueError("images must be (N,H,W) uint8")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, arr.shape[0]))
        fh.write(arr.tobytes())


def write_dataset(handle: DatasetHandle, directory) -> None:
    """Emit a handle as the standard-named IDX pair of its split (u8,
    value-exact for data that originated as u8)."""
    img_name, lbl_name = STANDARD_FILES[handle.split]
    u8 = np.round(handle.images * 255.0).astype(np.uint8)
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_idx_images(Path(directory) / img_name, u8)
    write_idx_labels(Path(directory) / lbl_name, handle.labels)


def pad_images(handle: DatasetHandle, target: int = 32) -> DatasetHandle:
    """Zero-pad square images up to target x target (e.g. 28 -> 32)."""
    n, h, w = handle.images.shape
    if h > target or w > target:
        raise ValueError(f"cannot pad {h}x{w} down to {target}x{target}")
    top, left = (target - h) // 2, (target - w) // 2
    out = np.zeros((n, target, target))
    out[:, top:top + h, left:left + w] = handle.images
    return DatasetHandle(out, handle.labels, handle.split)


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

# seven-segment style digit glyphs: (row0, col0, row1, col1) strokes on a
# 20x12 box, later jittered onto the 28x28 canvas
_SEGMENTS = {
    "top": (0, 0, 0, 11),
    "mid": (9, 0, 9, 11),
    "bot": (19, 0, 19, 11),
    "tl": (0, 0, 9, 0),
    "tr": (0, 11, 9, 11),
    "bl": (9, 0, 19, 0),
    "br": (9, 11, 19, 11),
}

_DIGIT_SEGMENTS = {
    0: ("top", "bot", "tl", "tr", "bl", "br"),
    1: ("tr", "br"),
    2: ("top", "tr", "mid", "bl", "bot"),
    3: ("top", "tr", "mid", "br", "bot"),
    4: ("tl", "tr", "mid", "br"),
    5: ("top", "tl", "mid", "br", "bot"),
    6: ("top", "tl", "mid", "bl", "br", "bot"),
    7: ("top", "tr", "br"),
    8: ("top", "mid", "bot", "tl", "tr", "bl", "br"),
    9: ("top", "mid", "bot", "tl", "tr", "br"),
}


def _draw_glyph(digit, thickness):
    canvas = np.zeros((20, 12))
    for seg in _DIGIT_SEGMENTS[digit]:
        r0, c0, r1, c1 = _SEGMENTS[seg]
        canvas[max(r0 - thickness + 1, 0):r1 + thickness,
               max(c0 - thickness + 1, 0):c1 + thickness] = 1.0
    return canvas


def synth_digits(n: int, seed: int = 0) -> DatasetHandle:
    """Deterministic glyph-based stand-in for a handwritten-digit set.

    Renders jittered seven-segment digits with SYNTH_PIXEL_NOISE pixel
    noise onto 28x28 u8 images.  Useful for exercising the full training
    pipeline where no real data is available; it is not MNIST and results
    on it are not comparable to published digit benchmarks.  Each image
    draws its values in turn, and the canvases are clipped and quantized
    to multiples of 1/255 SYNTH_BLOCK_IMAGES at a time, in place.
    """
    rng = np.random.default_rng(seed)
    glyphs = [[_draw_glyph(digit, thickness) for thickness in (2, 3)] for digit in range(10)]
    images = np.empty((n, 28, 28))
    labels = rng.integers(0, 10, size=n)
    for start in range(0, n, SYNTH_BLOCK_IMAGES):
        block = images[start:start + SYNTH_BLOCK_IMAGES]
        for img, label in zip(block, labels[start:start + len(block)]):
            thickness = int(rng.integers(2, 4))
            brightness = rng.uniform(0.55, 1.0)
            dy = int(rng.integers(2, 7))
            dx = int(rng.integers(4, 13))
            img[:] = rng.normal(0.0, SYNTH_PIXEL_NOISE, (28, 28))
            img[dy:dy + 20, dx:dx + 12] += glyphs[label][thickness - 2] * brightness
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        np.round(block, out=block)   # the u8 value, exactly
        block /= 255.0
    return DatasetHandle(images, labels, "train")


def synth_regression(target, n: int, lo: float = -3.0, hi: float = 3.0,
                     seed: int = 0):
    """Sample (x, target(x)) pairs with x uniform on [lo, hi]."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n)
    return xs, np.asarray(target(xs), dtype=np.float64)
