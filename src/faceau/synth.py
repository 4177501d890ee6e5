"""Deterministic synthetic face corpus with controllable action units.

Cartoon faces on a grayscale canvas. Four geometric AUs drive the drawing:

  0 brow_raise        brow bars shift up by 0.06*S*(l/5)
  1 eye_widen         eye radius scales by 1 + 0.4*(l/5)
  2 lip_corner_pull   mouth corners curve up proportionally to l/5
  3 mouth_open        lip aperture opens proportionally to l/5

Intensity l per AU is drawn from a long-tailed distribution (P(l=0) =
P_ZERO, geometric tail of ratio TAIL_RATIO over 1..5); the occurrence bit
is (l > 0).
Subjects carry fixed geometry jitter so identity and expression vary
independently. Everything is a pure function of the arguments.
"""

from __future__ import annotations

import os

import numpy as np

from .data import Corpus, Manifest, SampleRecord, write_image, write_manifest

AU_NAMES = ("brow_raise", "eye_widen", "lip_corner_pull", "mouth_open")
P_ZERO = 0.55
TAIL_RATIO = 0.55
_TAIL = np.array([TAIL_RATIO ** k for k in range(5)], dtype=np.float64)
_LEVEL_P = np.concatenate([[P_ZERO], _TAIL / _TAIL.sum() * (1.0 - P_ZERO)])  # P(l), l = 0..5


def _subject_jitter(seed, subject_idx):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7700 + subject_idx]))
    return {
        "head_a": 1.0 + 0.10 * (rng.random() - 0.5) * 2,
        "head_b": 1.0 + 0.10 * (rng.random() - 0.5) * 2,
        "eye_sep": 1.0 + 0.12 * (rng.random() - 0.5) * 2,
        "eye_y": 1.0 + 0.10 * (rng.random() - 0.5) * 2,
        "mouth_y": 1.0 + 0.08 * (rng.random() - 0.5) * 2,
        "mouth_w": 1.0 + 0.15 * (rng.random() - 0.5) * 2,
        "face_gray": int(rng.integers(180, 221)),
        "feature_gray": int(rng.integers(30, 71)),
    }


def render_face(image_size, jitter, levels):
    """Draw one face; returns (uint8 [1,S,S] image, landmarks [5,2])."""
    s = float(image_size)
    yy, xx = np.meshgrid(np.arange(image_size, dtype=np.float64),
                         np.arange(image_size, dtype=np.float64), indexing="ij")
    lv = np.zeros(4)
    lv[: len(levels)] = np.asarray(levels, dtype=np.float64) / 5.0
    brow, widen, pull, open_ = lv

    canvas = np.full((image_size, image_size), 40, dtype=np.float64)
    cx, cy = s / 2.0, s / 2.0
    head_a = 0.42 * s * jitter["head_a"]
    head_b = 0.46 * s * jitter["head_b"]
    head = ((xx - cx) / head_a) ** 2 + ((yy - cy) / head_b) ** 2 <= 1.0
    canvas[head] = jitter["face_gray"]

    dark = jitter["feature_gray"]
    eye_dx = 0.16 * s * jitter["eye_sep"]
    eye_y = cy - 0.10 * s * jitter["eye_y"]
    eye_r = 0.05 * s * (1.0 + 0.4 * widen)
    for ex in (cx - eye_dx, cx + eye_dx):
        eye = (xx - ex) ** 2 + (yy - eye_y) ** 2 <= eye_r ** 2
        canvas[eye] = dark

    brow_y = eye_y - 0.09 * s - 0.06 * s * brow
    half_len = 0.07 * s
    for ex in (cx - eye_dx, cx + eye_dx):
        bar = (np.abs(yy - brow_y) <= 0.60) & (np.abs(xx - ex) <= half_len)
        canvas[bar] = dark

    nose = (xx - cx) ** 2 + (yy - (cy + 0.04 * s)) ** 2 <= (0.025 * s) ** 2
    canvas[nose] = dark

    mouth_y = cy + 0.26 * s * jitter["mouth_y"]
    half_w = 0.18 * s * jitter["mouth_w"]
    t = (xx - cx) / half_w
    center_line = mouth_y - 0.08 * s * pull * t * t
    aperture = 0.5 + 0.5 * 0.12 * s * open_
    mouth = (np.abs(t) <= 1.0) & (yy >= center_line - aperture - 0.6) & \
        (yy <= center_line + aperture + 0.6)
    canvas[mouth] = dark

    corner_y = mouth_y - 0.08 * s * pull
    landmarks = np.array([
        [cx - eye_dx, eye_y],
        [cx + eye_dx, eye_y],
        [cx, cy + 0.04 * s],
        [cx - half_w, corner_y],
        [cx + half_w, corner_y],
    ])
    image = np.clip(np.round(canvas), 0, 255).astype(np.uint8)[None, :, :]
    return image, landmarks


def synth_corpus(seed, count, image_size=32, num_aus=4, num_subjects=10):
    """Generate `count` labeled faces across `num_subjects` identities."""
    if not (1 <= num_aus <= 4):
        raise ValueError(f"generator defines 4 action units; num_aus {num_aus} unsupported")
    if count < 1:
        raise ValueError("count must be >= 1")
    if num_subjects < 1:
        raise ValueError("num_subjects must be >= 1")
    if image_size < 1:
        raise ValueError(f"image_size must be >= 1, got {image_size}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    jitters = [_subject_jitter(seed, i) for i in range(num_subjects)]
    records, images = [], []
    frame_counter = [0] * num_subjects
    for i in range(count):
        subj = i % num_subjects
        levels = rng.choice(6, size=num_aus, p=_LEVEL_P)
        image, landmarks = render_face(image_size, jitters[subj], levels)
        records.append(SampleRecord(
            image_path=f"img_{i:05d}.pgm",
            subject=f"s{subj:02d}",
            frame=frame_counter[subj],
            landmarks=landmarks,
            occurrence=(levels > 0).astype(np.int64),
            intensity=levels.astype(np.int64),
        ))
        images.append(image)
        frame_counter[subj] += 1
    manifest = Manifest(records=records, au_names=list(AU_NAMES[:num_aus]),
                        dataset=f"synth-{seed}", image_size=image_size)
    return Corpus(manifest=manifest, images=images)


def write_corpus(corpus, out_dir):
    """Persist a corpus as PGM files plus a manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    for rec, image in zip(corpus.manifest.records, corpus.images):
        write_image(image, os.path.join(out_dir, rec.image_path))
    corpus.manifest.base_dir = out_dir
    path = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(corpus.manifest, path)
    return path
