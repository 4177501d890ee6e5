"""Data layer: image I/O, manifests, geometry, subsampling, synth corpus."""

import math
import os

import numpy as np
import pytest

from faceau.data import (
    Corpus,
    ImageFormatError,
    Manifest,
    ManifestError,
    SampleRecord,
    align_face,
    crop_square,
    read_image,
    read_manifest,
    resize_bilinear,
    rotate_about,
    subsample_every_n,
    to_float,
    to_uint8,
    transform_points,
    write_image,
    write_manifest,
)
from faceau.synth import AU_NAMES, _subject_jitter, render_face, synth_corpus, write_corpus


# ---------------------------------------------------------------------------
# image I/O


@pytest.mark.parametrize("channels", [1, 3])
def test_image_roundtrip_bitwise(tmp_path, channels):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(channels, 7, 5), dtype=np.uint8)
    path = tmp_path / "img.pnm"
    write_image(img, path)
    back = read_image(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)


def test_ppm_header_parsing(tmp_path):
    path = tmp_path / "img.ppm"
    payload = bytes(range(24))
    path.write_bytes(b"P6\n4 2\n255\n" + payload)
    img = read_image(path)
    assert img.shape == (3, 2, 4)
    assert img[0, 0, 0] == 0 and img[2, 0, 0] == 2  # channel-fastest on disk


def test_pnm_comments_tolerated(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
    img = read_image(path)
    assert img.shape == (1, 2, 2)
    assert img.reshape(-1).tolist() == [1, 2, 3, 4]


def test_ascii_ppm_rejected_with_expected_magic(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ImageFormatError) as ei:
        read_image(path)
    assert "P5" in str(ei.value) and "P6" in str(ei.value)


def test_bad_maxval_and_truncation_rejected(tmp_path):
    p1 = tmp_path / "a.pgm"
    p1.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ImageFormatError):
        read_image(p1)
    p2 = tmp_path / "b.pgm"
    p2.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ImageFormatError):
        read_image(p2)


def test_float_uint8_conversion():
    img = np.array([[[0, 128, 255]]], dtype=np.uint8)
    f = to_float(img)
    assert f.dtype == np.float32
    assert f.min() == 0.0 and f.max() == 1.0
    assert np.array_equal(to_uint8(f), img)


# ---------------------------------------------------------------------------
# manifests


def _sample_manifest():
    recs = [
        SampleRecord(image_path="a.pgm", subject="s1", frame=0,
                     occurrence=np.array([1, 0, 1]), intensity=np.array([3, 0, 5]),
                     landmarks=np.array([[1.0, 2]] * 5), bbox=(0, 0, 4, 4),
                     extra={"source": "unit-test", "quality": 0.9}),
        SampleRecord(image_path="b.pgm", subject="s1", frame=1,
                     occurrence=np.array([0, 0, 0])),
        SampleRecord(image_path="c.pgm", subject="s2", frame=0),
    ]
    return Manifest(records=recs, au_names=["au_a", "au_b", "au_c"],
                    dataset="demo", image_size=32)


def test_manifest_roundtrip_preserves_everything(tmp_path):
    m = _sample_manifest()
    path = tmp_path / "m.jsonl"
    write_manifest(m, path)
    back = read_manifest(path)
    assert back.dataset == "demo" and back.au_names == m.au_names
    assert back.image_size == 32
    assert len(back.records) == 3
    r = back.records[0]
    assert (r.image_path, r.subject, r.frame) == ("a.pgm", "s1", 0)
    assert np.array_equal(r.occurrence, [1, 0, 1])
    assert np.array_equal(r.intensity, [3, 0, 5])
    assert r.extra == {"source": "unit-test", "quality": 0.9}
    assert back.records[2].occurrence is None
    # second trip is bit-identical
    path2 = tmp_path / "m2.jsonl"
    write_manifest(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_manifest_wrong_label_length_names_line(tmp_path):
    m = _sample_manifest()
    path = tmp_path / "m.jsonl"
    write_manifest(m, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"occurrence": [0, 0, 0]', '"occurrence": [0, 0]')
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as ei:
        read_manifest(bad)
    assert "line 3" in str(ei.value) and "3" in str(ei.value)


def test_manifest_empty_record_list_is_valid(tmp_path):
    m = Manifest(records=[], au_names=["x"], dataset="empty")
    path = tmp_path / "e.jsonl"
    write_manifest(m, path)
    back = read_manifest(path)
    assert back.records == []


def test_manifest_duplicate_subject_frame_rejected(tmp_path):
    m = _sample_manifest()
    m.records[1].frame = 0  # collides with record 0
    path = tmp_path / "dup.jsonl"
    write_manifest(m, path)
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_manifest_bad_header_and_json(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ManifestError):
        read_manifest(p)
    p.write_text('not json\n')
    with pytest.raises(ManifestError) as ei:
        read_manifest(p)
    assert "line 1" in str(ei.value)


# ---------------------------------------------------------------------------
# geometry


def test_align_face_level_eyes_is_identity():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(1, 64, 64), dtype=np.uint8)
    out, pts = align_face(img, (30.0, 40.0), (70.0, 40.0))
    assert np.array_equal(out, img)
    assert np.allclose(pts, [[30, 40], [70, 40]])


def test_align_face_diagonal_eyes_become_level():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(1, 100, 100), dtype=np.uint8)
    out, pts = align_face(img, (30.0, 30.0), (70.0, 70.0))
    left, right = pts
    assert abs(left[1] - right[1]) < 0.5
    assert right[0] > left[0]
    # distance preserved by the rotation
    want = math.dist((30, 30), (70, 70))
    assert math.dist(left, right) == pytest.approx(want, abs=1e-6)


def test_align_face_rejects_coincident_eyes():
    img = np.zeros((1, 8, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        align_face(img, (3.0, 3.0), (3.0, 3.0))


def test_align_face_rotation_round_trip():
    # smooth synthetic content; rotate +17 deg, align back, compare interior
    size = 96
    ys, xs = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    smooth = 127.5 + 60 * np.sin(xs / 7.0) * np.cos(ys / 9.0) + 30 * np.sin((xs + ys) / 15.0)
    img = np.clip(np.round(smooth), 0, 255).astype(np.uint8)[None]
    eyes = np.array([[34.0, 44.0], [62.0, 44.0]])
    mid = eyes.mean(axis=0)
    angle = math.radians(17.0)
    rotated = rotate_about(img, mid, angle)
    new_eyes = transform_points(eyes, mid, angle)
    aligned, pts = align_face(rotated, new_eyes[0], new_eyes[1])
    assert abs(pts[0][1] - pts[1][1]) < 0.5
    lo, hi = size // 4, 3 * size // 4
    diff = np.abs(to_float(aligned)[:, lo:hi, lo:hi] - to_float(img)[:, lo:hi, lo:hi])
    assert diff.mean() < 4.0 / 255.0


def test_crop_square_exact_fit():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(1, 100, 100), dtype=np.uint8)
    out = crop_square(img, (30, 30, 70, 70))
    assert out.shape == (1, 40, 40)
    assert np.array_equal(out, img[:, 30:70, 30:70])


def test_crop_square_expands_short_side_about_center():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(1, 100, 100), dtype=np.uint8)
    out = crop_square(img, (40, 30, 60, 70))  # 20 wide x 40 tall
    assert out.shape == (1, 40, 40)
    assert np.array_equal(out, img[:, 30:70, 30:70])


def test_crop_square_pads_zero_outside_frame():
    img = np.full((1, 50, 50), 200, dtype=np.uint8)
    out = crop_square(img, (0, 10, 10, 40))  # touches left edge, needs expansion
    assert out.shape == (1, 30, 30)
    x0 = 0 - (30 - 10) // 2  # -10: ten padded columns
    assert (out[:, :, :10] == 0).all()
    assert (out[:, :, 10:] == 200).all()
    assert x0 == -10


def test_crop_square_rejects_empty_bbox():
    img = np.zeros((1, 10, 10), dtype=np.uint8)
    with pytest.raises(ValueError):
        crop_square(img, (5, 5, 5, 9))


def test_resize_identity_is_bitwise():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(3, 16, 16), dtype=np.uint8)
    out = resize_bilinear(img, 16)
    assert np.array_equal(out, img)
    assert out is not img


def test_resize_constant_stays_constant():
    img = np.full((1, 5, 5), 77, dtype=np.uint8)
    for t in (1, 3, 12):
        out = resize_bilinear(img, t)
        assert (out == 77).all() and out.shape == (1, t, t)


def test_resize_checkerboard_matches_scalar_oracle():
    img = np.array([[[0, 255], [255, 0]]], dtype=np.uint8)
    out = resize_bilinear(img, 4)

    def scalar_bilinear(src, x, y):
        h, w = src.shape
        x = min(max(x, 0.0), w - 1.0)
        y = min(max(y, 0.0), h - 1.0)
        x0, y0 = int(math.floor(x)), int(math.floor(y))
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = x - x0, y - y0
        top = src[y0, x0] * (1 - fx) + src[y0, x1] * fx
        bot = src[y1, x0] * (1 - fx) + src[y1, x1] * fx
        return top * (1 - fy) + bot * fy

    src = img[0].astype(np.float64)
    for i in range(4):
        for j in range(4):
            x = (j + 0.5) * 0.5 - 0.5
            y = (i + 0.5) * 0.5 - 0.5
            want = round(scalar_bilinear(src, x, y))
            assert out[0, i, j] == want, (i, j)
    assert out[0, 0, 0] == 0 and out[0, 0, 3] == 255  # corners preserved


def test_resize_rejects_bad_target():
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((1, 4, 4), dtype=np.uint8), 0)


# ---------------------------------------------------------------------------
# subsampling


def test_subsample_every_n_single_subject():
    recs = [SampleRecord(image_path=f"{i}.pgm", subject="s", frame=i) for i in range(1000)]
    m = Manifest(records=recs, au_names=["x"])
    out = subsample_every_n(m, 10)
    assert len(out.records) == 100
    assert [r.frame for r in out.records] == list(range(0, 1000, 10))


def test_subsample_identity_and_validation():
    recs = [SampleRecord(image_path=f"{i}.pgm", subject="s", frame=i) for i in range(7)]
    m = Manifest(records=recs, au_names=["x"])
    assert [r.frame for r in subsample_every_n(m, 1).records] == list(range(7))
    with pytest.raises(ValueError):
        subsample_every_n(m, 0)


def test_subsample_per_subject_ceiling():
    recs = [SampleRecord(image_path=f"a{i}.pgm", subject="a", frame=i) for i in range(35)]
    recs += [SampleRecord(image_path=f"b{i}.pgm", subject="b", frame=i) for i in range(64)]
    m = Manifest(records=recs, au_names=["x"])
    out = subsample_every_n(m, 10)
    by_subject = {}
    for r in out.records:
        by_subject.setdefault(r.subject, []).append(r.frame)
    assert len(by_subject["a"]) == math.ceil(35 / 10)
    assert len(by_subject["b"]) == math.ceil(64 / 10)
    assert len(out.records) == 4 + 7


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_same_seed_bitwise_identical():
    a = synth_corpus(seed=5, count=20)
    b = synth_corpus(seed=5, count=20)
    for ia, ib in zip(a.images, b.images):
        assert np.array_equal(ia, ib)
    for ra, rb in zip(a.manifest.records, b.manifest.records):
        assert np.array_equal(ra.intensity, rb.intensity)
        assert ra.subject == rb.subject
    c = synth_corpus(seed=6, count=20)
    assert any(not np.array_equal(x, y) for x, y in zip(a.images, c.images))


def test_synth_neutral_record_matches_template():
    corpus = synth_corpus(seed=3, count=200, num_subjects=4)
    hit = None
    for rec, img in zip(corpus.manifest.records, corpus.images):
        if (rec.intensity == 0).all():
            hit = (rec, img)
            break
    assert hit is not None, "no neutral face in 200 draws is wildly improbable"
    rec, img = hit
    subj_idx = int(rec.subject[1:])
    template, _ = render_face(32, _subject_jitter(3, subj_idx), np.zeros(4))
    assert np.array_equal(img, template)


def test_synth_positive_rate_matches_distribution():
    corpus = synth_corpus(seed=9, count=10000)
    occ = np.stack([r.occurrence for r in corpus.manifest.records])
    rates = occ.mean(axis=0)
    assert (np.abs(rates - 0.45) <= 0.015).all(), rates


def test_synth_levels_and_landmarks_consistent():
    corpus = synth_corpus(seed=1, count=50)
    for rec in corpus.manifest.records:
        assert np.array_equal(rec.occurrence, (rec.intensity > 0).astype(int))
        assert rec.landmarks.shape == (5, 2)
        assert (rec.landmarks >= 0).all() and (rec.landmarks < 32).all()
        left, right = rec.landmarks[0], rec.landmarks[1]
        assert left[1] == right[1]  # drawn eyes are level


def test_synth_au_geometry_changes_pixels():
    jit = _subject_jitter(0, 0)
    neutral, _ = render_face(32, jit, [0, 0, 0, 0])
    for au in range(4):
        levels = [0, 0, 0, 0]
        levels[au] = 5
        active, _ = render_face(32, jit, levels)
        assert not np.array_equal(active, neutral), AU_NAMES[au]


def test_write_corpus_roundtrip(tmp_path):
    corpus = synth_corpus(seed=2, count=6, num_subjects=2)
    path = write_corpus(corpus, str(tmp_path / "corpus"))
    back = read_manifest(path)
    assert len(back.records) == 6
    img0 = read_image(back.resolve(back.records[0]))
    assert np.array_equal(img0, corpus.images[0])


def test_corpus_subset_and_restrict():
    corpus = synth_corpus(seed=4, count=12, num_subjects=3)
    sub = corpus.subset([0, 5, 7])
    assert len(sub) == 3
    assert np.array_equal(sub.images[1], corpus.images[5])
