"""Dataset layer: PGM/PPM image I/O, JSONL manifests, face geometry
(alignment, square crop, bilinear resize) and subsampling.

Images are numpy arrays shaped [C, H, W]: uint8 on disk, float32 in [0, 1]
inside the training pipeline. Points and landmarks are (x, y) pixel
coordinates, y growing downward.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .model import write_file


class ImageFormatError(ValueError):
    """File is not a binary PGM/PPM image this module can read."""


class ManifestError(ValueError):
    """Manifest violates the schema; message carries the line number."""


# ---------------------------------------------------------------------------
# image I/O (binary PGM "P5" grayscale / PPM "P6" RGB, maxval 255)


def _read_pnm_tokens(raw, count):
    # header tokens are whitespace-separated; '#' starts a comment line
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(raw):
            raise ImageFormatError("truncated header")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos:pos + 1].isspace():
                pos += 1
            tokens.append(raw[start:pos])
    return tokens, pos + 1  # skip single whitespace after last token


def read_image(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 2:
        raise ImageFormatError(f"{path}: too short to hold a PGM/PPM magic")
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(
            f"{path}: unsupported magic {magic!r}; expected binary 'P5' (PGM) or 'P6' (PPM)")
    channels = 1 if magic == b"P5" else 3
    tokens, offset = _read_pnm_tokens(raw[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as e:
        raise ImageFormatError(f"{path}: non-numeric header field") from e
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported, expected 255")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    data = raw[2 + offset:]
    need = width * height * channels
    if len(data) < need:
        raise ImageFormatError(f"{path}: payload has {len(data)} bytes, needs {need}")
    pixels = np.frombuffer(data[:need], dtype=np.uint8).reshape(height, width, channels)
    return np.ascontiguousarray(pixels.transpose(2, 0, 1))


def write_image(image, path):
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise ImageFormatError(f"expected [C,H,W] with C in {{1,3}}, got {image.shape}")
    if image.dtype != np.uint8:
        raise ImageFormatError(f"expected uint8 pixels, got {image.dtype}")
    c, h, w = image.shape
    magic = b"P5" if c == 1 else b"P6"
    write_file(path, [magic + b"\n%d %d\n255\n" % (w, h),
                      np.ascontiguousarray(image.transpose(1, 2, 0)).tobytes()])


def to_float(image):
    """uint8 [C,H,W] -> float32 in [0,1]."""
    return np.asarray(image, dtype=np.float32) / 255.0


def to_uint8(image):
    """float [C,H,W] in [0,1] -> rounded uint8."""
    return np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# records and manifests


@dataclass
class SampleRecord:
    image_path: str
    subject: str
    frame: int
    landmarks: np.ndarray | None = None  # [5, 2] (x, y): eyes, nose, mouth corners
    bbox: np.ndarray | None = None  # [4] (x0, y0, x1, y1), half-open
    occurrence: np.ndarray | None = None
    intensity: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def validate(self, num_aus, line=None):
        where = f"line {line}: " if line is not None else ""
        if self.occurrence is not None:
            if self.occurrence.shape != (num_aus,):
                raise ManifestError(f"{where}occurrence must be a list of {num_aus} values, "
                                    f"got shape {self.occurrence.shape}")
            occ = self.occurrence
            if not ((occ == 0) | (occ == 1)).all():
                raise ManifestError(f"{where}occurrence bits must be 0 or 1")
        if self.intensity is not None:
            if self.intensity.shape != (num_aus,):
                raise ManifestError(f"{where}intensity must be a list of {num_aus} values, "
                                    f"got shape {self.intensity.shape}")
            if ((self.intensity < 0) | (self.intensity > 5)).any():
                raise ManifestError(f"{where}intensity levels must lie in 0..5")
        if self.landmarks is not None:
            if self.landmarks.shape != (5, 2):
                raise ManifestError(f"{where}landmarks must be 5 (x, y) points")
            if not np.isfinite(self.landmarks).all() or (self.landmarks < 0).any():
                raise ManifestError(f"{where}landmarks must be finite non-negative coordinates")
        if self.bbox is not None:
            if self.bbox.shape != (4,) or not np.isfinite(self.bbox).all():
                raise ManifestError(f"{where}bbox must be 4 finite numbers (x0, y0, x1, y1)")


@dataclass
class Manifest:
    records: list
    au_names: list
    dataset: str = "unnamed"
    image_size: int | None = None
    base_dir: str = "."

    @property
    def num_aus(self):
        return len(self.au_names)

    def subjects(self):
        seen = dict.fromkeys(r.subject for r in self.records)
        return list(seen)

    def validate(self):
        """Reject a repeated (subject, frame) pair; each record's own fields
        are checked once, where read_manifest parses its line."""
        pairs = set()
        for i, rec in enumerate(self.records):
            key = (rec.subject, rec.frame)
            if key in pairs:
                raise ManifestError(f"duplicate (subject, frame) pair {key} at record {i}")
            pairs.add(key)

    def resolve(self, rec):
        return os.path.join(self.base_dir, rec.image_path)


_HEADER_FORMAT = "faceau-manifest"
_HEADER_VERSION = 1


def _record_to_obj(rec):
    obj = {"image": rec.image_path, "subject": rec.subject, "frame": rec.frame}
    if rec.landmarks is not None:
        obj["landmarks"] = np.asarray(rec.landmarks, dtype=float).tolist()
    if rec.bbox is not None:
        obj["bbox"] = [float(v) for v in rec.bbox]
    if rec.occurrence is not None:
        obj["occurrence"] = [int(v) for v in rec.occurrence]
    if rec.intensity is not None:
        obj["intensity"] = [int(v) for v in rec.intensity]
    obj.update(rec.extra)
    return obj


_KNOWN_KEYS = {"image", "subject", "frame", "landmarks", "bbox", "occurrence", "intensity"}


def _whole(obj, key):
    """obj[key], a number or a list of numbers, as int64; a fraction raises
    ValueError instead of being truncated by the conversion."""
    values = np.asarray(obj[key], dtype=np.int64)
    if values.tolist() != obj[key]:
        raise ValueError(f"{key} must be whole numbers, got {obj[key]!r}")
    return values


def _record_from_obj(obj, num_aus, line):
    try:
        rec = SampleRecord(
            image_path=str(obj["image"]),
            subject=str(obj["subject"]),
            frame=int(_whole(obj, "frame")),
            landmarks=np.asarray(obj["landmarks"], dtype=np.float64)
            if obj.get("landmarks") is not None else None,
            bbox=np.asarray(obj["bbox"], dtype=np.float64)
            if obj.get("bbox") is not None else None,
            occurrence=_whole(obj, "occurrence")
            if obj.get("occurrence") is not None else None,
            intensity=_whole(obj, "intensity")
            if obj.get("intensity") is not None else None,
            extra={k: v for k, v in obj.items() if k not in _KNOWN_KEYS},
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ManifestError(f"line {line}: malformed record ({e})") from e
    rec.validate(num_aus, line=line)
    return rec


def write_manifest(manifest, path):
    header = {
        "format": _HEADER_FORMAT,
        "version": _HEADER_VERSION,
        "dataset": manifest.dataset,
        "au_names": manifest.au_names,
        "image_size": manifest.image_size,
    }
    objs = [header, *map(_record_to_obj, manifest.records)]
    write_file(path, (json.dumps(obj) + "\n" for obj in objs))


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise ManifestError(f"{path}: not UTF-8 text ({e})") from e
    if not lines:
        raise ManifestError("line 1: empty file, expected a header object")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ManifestError(f"line 1: header is not valid JSON ({e})") from e
    if not isinstance(header, dict) or header.get("format") != _HEADER_FORMAT:
        raise ManifestError(f"line 1: missing format marker {_HEADER_FORMAT!r}")
    if header.get("version") != _HEADER_VERSION:
        raise ManifestError(f"line 1: unsupported manifest version {header.get('version')!r}")
    au_names = header.get("au_names")
    if not (isinstance(au_names, list) and au_names
            and all(isinstance(name, str) for name in au_names)):
        raise ManifestError("line 1: header must list au_names as a non-empty "
                            "JSON list of strings")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ManifestError(f"line {i}: record is not valid JSON ({e})") from e
        records.append(_record_from_obj(obj, len(au_names), i))
    manifest = Manifest(
        records=records,
        au_names=au_names,
        dataset=header.get("dataset", "unnamed"),
        image_size=header.get("image_size"),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    manifest.validate()
    return manifest


# ---------------------------------------------------------------------------
# geometry


def bilinear_sample(image, xs, ys):
    """Sample float [C,H,W] at fractional (x, y) grids; outside -> 0."""
    c, h, w = image.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    out = np.zeros((c,) + xs.shape, dtype=image.dtype)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            weight = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            xi_c = np.clip(xi, 0, w - 1)
            yi_c = np.clip(yi, 0, h - 1)
            contrib = image[:, yi_c, xi_c] * (weight * inside)
            out += contrib.astype(out.dtype, copy=False)
    return out


def rotate_about(image, center, angle_rad):
    """Rotate image content by angle_rad about center (x, y); black fill.

    A point p in the source appears at R(angle)·(p − c) + c in the output.
    """
    was_u8 = image.dtype == np.uint8
    img = to_float(image) if was_u8 else np.asarray(image, dtype=np.float64)
    c, h, w = img.shape
    cx, cy = float(center[0]), float(center[1])
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    # inverse map: sample the source at R(-angle)·(o − c) + c
    ca, sa = math.cos(angle_rad), math.sin(angle_rad)
    dx = xs - cx
    dy = ys - cy
    src_x = ca * dx + sa * dy + cx
    src_y = -sa * dx + ca * dy + cy
    out = bilinear_sample(img, src_x, src_y)
    return to_uint8(out) if was_u8 else out


def transform_points(points, center, angle_rad):
    """Apply the rotate_about point map to an array of (x, y) points."""
    pts = np.asarray(points, dtype=np.float64)
    ca, sa = math.cos(angle_rad), math.sin(angle_rad)
    d = pts - np.asarray(center, dtype=np.float64)
    return np.stack([ca * d[..., 0] - sa * d[..., 1],
                     sa * d[..., 0] + ca * d[..., 1]], axis=-1) + center


def align_face(image, left_eye, right_eye, landmarks=None):
    """Rotate about the eye midpoint so the eye line is horizontal.

    Returns (image, transformed points): the supplied landmarks if given,
    else the two eye points.
    """
    left = np.asarray(left_eye, dtype=np.float64)
    right = np.asarray(right_eye, dtype=np.float64)
    delta = right - left
    if np.allclose(delta, 0.0):
        raise ValueError("eye points coincide; alignment angle is undefined")
    angle = math.atan2(delta[1], delta[0])
    center = (left + right) / 2.0
    pts = np.asarray(landmarks, dtype=np.float64) if landmarks is not None \
        else np.stack([left, right])
    if angle == 0.0:
        return image.copy(), pts
    rotated = rotate_about(image, center, -angle)
    return rotated, transform_points(pts, center, -angle)


def crop_square(image, bbox):
    """Square crop: expand the short bbox side about its center, zero-pad
    anything that falls outside the frame."""
    x0, y0, x1, y1 = (int(round(v)) for v in bbox)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"empty bbox {bbox}")
    w, h = x1 - x0, y1 - y0
    side = max(w, h)
    x0 -= (side - w) // 2
    x1 = x0 + side
    y0 -= (side - h) // 2
    y1 = y0 + side
    c, ih, iw = image.shape
    out = np.zeros((c, side, side), dtype=image.dtype)
    sx0, sx1 = max(x0, 0), min(x1, iw)
    sy0, sy1 = max(y0, 0), min(y1, ih)
    if sx0 < sx1 and sy0 < sy1:
        out[:, sy0 - y0:sy1 - y0, sx0 - x0:sx1 - x0] = image[:, sy0:sy1, sx0:sx1]
    return out


def resize_bilinear(image, target):
    """Resize [C,H,W] to target x target with half-pixel sample centers."""
    target = int(target)
    if target < 1:
        raise ValueError(f"target size {target} must be >= 1")
    c, h, w = image.shape
    if h == target and w == target:
        return image.copy()
    was_u8 = image.dtype == np.uint8
    img = np.asarray(image, dtype=np.float64)
    # half-pixel centers, clamped at the border
    xs = (np.arange(target, dtype=np.float64) + 0.5) * (w / target) - 0.5
    ys = (np.arange(target, dtype=np.float64) + 0.5) * (h / target) - 0.5
    xs = np.clip(xs, 0, w - 1)
    ys = np.clip(ys, 0, h - 1)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    out = bilinear_sample(img, grid_x, grid_y)
    return np.clip(np.round(out), 0, 255).astype(np.uint8) if was_u8 else out


# ---------------------------------------------------------------------------
# subsampling


def subsample_every_n(manifest, n):
    """Per subject, keep every n-th record in frame order (0, n, 2n, ...)."""
    if n < 1:
        raise ValueError(f"subsample interval must be >= 1, got {n}")
    keep = set()
    by_subject = {}
    for rec in manifest.records:
        by_subject.setdefault(rec.subject, []).append(rec)
    for recs in by_subject.values():
        ordered = sorted(recs, key=lambda r: r.frame)
        for pos, rec in enumerate(ordered):
            if pos % n == 0:
                keep.add(id(rec))
    return replace(manifest, records=[r for r in manifest.records if id(r) in keep])


# ---------------------------------------------------------------------------
# in-memory corpus


@dataclass
class Corpus:
    """Manifest plus decoded images, aligned by index."""

    manifest: Manifest
    images: list  # uint8 [C,H,W] per record

    def __len__(self):
        return len(self.manifest.records)

    def subset(self, indices):
        records = [self.manifest.records[i] for i in indices]
        return Corpus(manifest=replace(self.manifest, records=records),
                      images=[self.images[i] for i in indices])


def load_corpus(manifest):
    images = [read_image(manifest.resolve(rec)) for rec in manifest.records]
    return Corpus(manifest=manifest, images=images)
