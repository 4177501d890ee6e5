"""Augmentation identities, expectations, and exact label arithmetic."""

import numpy as np
import pytest

from faceau import ndgrad as ng
from faceau.augment import (RANDAUG_OPS, cutmix, drop_path, mixup,
                            randaug_light, random_crop_resize)
from faceau.ndgrad import Tensor


class StubRng:
    """Fixed-draw stand-in so endpoint behavior can be forced exactly."""

    def __init__(self, beta_value=0.5, center=0):
        self.beta_value = beta_value
        self.center = center

    def beta(self, a, b):
        return self.beta_value

    def permutation(self, n):
        return np.arange(n)[::-1]

    def integers(self, lo, hi):
        return self.center


def labels4(*rows):
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------- drop_path

def test_drop_path_identity_when_not_training():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert drop_path(x, 0.5, np.random.default_rng(0), training=False) is x


def test_drop_path_identity_at_rate_zero():
    x = Tensor(np.ones((2, 2)))
    assert drop_path(x, 0.0, np.random.default_rng(0), training=True) is x


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
def test_drop_path_rejects_bad_rates(rate):
    with pytest.raises(ValueError):
        drop_path(Tensor(np.ones(2)), rate, np.random.default_rng(0), training=True)


def test_drop_path_outputs_are_zero_or_rescaled():
    rng = np.random.default_rng(3)
    x = Tensor(np.full((2, 2), 2.0))
    dropped = kept = 0
    for _ in range(200):
        out = drop_path(x, 0.25, rng, training=True)
        if np.all(out.data == 0.0):
            dropped += 1
        else:
            assert np.allclose(out.data, 2.0 / 0.75, atol=1e-6)
            kept += 1
    assert dropped > 0 and kept > 0
    assert kept / 200 == pytest.approx(0.75, abs=0.1)


def test_drop_path_expectation_preserved():
    rng = np.random.default_rng(11)
    x = Tensor(np.array([4.0]))
    total = 0.0
    n = 10000
    for _ in range(n):
        total += drop_path(x, 0.1, rng, training=True).data[0]
    assert total / n == pytest.approx(4.0, rel=0.02)


def test_drop_path_gradient_scales_with_keep():
    rng = np.random.default_rng(5)
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with ng.Tape() as tape:
        kept = None
        while kept is None:
            out = drop_path(x, 0.5, rng, training=True)
            if out.data[0] != 0.0:
                kept = out
        loss = ng.sum(kept)
    ng.backward(loss, tape)
    assert np.allclose(x.grad, 2.0)


# -------------------------------------------------------------------- mixup

def test_mixup_identity_for_singleton_batch():
    imgs = np.random.default_rng(0).random((1, 1, 4, 4)).astype(np.float32)
    labs = labels4([1, 0, 1, 0])
    out, out_labs, lam = mixup(imgs, labs, alpha=0.2, rng=np.random.default_rng(1))
    assert lam == 1.0
    assert np.array_equal(out, imgs)
    assert out_labs is labs


def test_mixup_identity_for_alpha_zero():
    imgs = np.zeros((3, 1, 2, 2), dtype=np.float32)
    labs = labels4([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
    _, out_labs, lam = mixup(imgs, labs, alpha=0.0, rng=np.random.default_rng(1))
    assert lam == 1.0 and out_labs is labs


def test_mixup_label_arithmetic_at_half():
    imgs = np.stack([np.zeros((1, 2, 2)), np.ones((1, 2, 2))]).astype(np.float32)
    labs = labels4([1, 0, 1, 1], [0, 0, 1, 0])
    out, out_labs, lam = mixup(imgs, labs, alpha=1.0, rng=StubRng(beta_value=0.5))
    assert lam == 0.5
    assert np.allclose(out, 0.5)
    assert np.allclose(out_labs[0], [0.5, 0.0, 1.0, 0.5])
    assert np.allclose(out_labs[1], [0.5, 0.0, 1.0, 0.5])


def test_mixup_pixels_are_convex_combination():
    rng = np.random.default_rng(7)
    imgs = rng.random((5, 2, 6, 6)).astype(np.float32)
    labs = labels4(*[[1, 0, 0, 0]] * 5)
    out, _, lam = mixup(imgs, labs, alpha=0.8, rng=np.random.default_rng(21))
    assert 0.0 <= lam <= 1.0
    # the batch mean is permutation-invariant, so mixing preserves it
    assert out.mean() == pytest.approx(imgs.mean(), abs=1e-6)
    lo = np.minimum.reduce([imgs[i] for i in range(5)]).min()
    hi = np.maximum.reduce([imgs[i] for i in range(5)]).max()
    assert out.min() >= lo - 1e-6 and out.max() <= hi + 1e-6


# ------------------------------------------------------------------- cutmix

def test_cutmix_identity_when_nothing_pasted():
    imgs = np.random.default_rng(0).random((2, 1, 8, 8)).astype(np.float32)
    labs = labels4([1, 0, 0, 0], [0, 1, 0, 0])
    out, out_labs, frac = cutmix(imgs, labs, alpha=1.0, rng=StubRng(beta_value=1.0))
    assert frac == 0.0
    assert np.array_equal(out, imgs)
    assert out_labs is labs


def test_cutmix_full_swap_when_region_covers_image():
    imgs = np.stack([np.full((1, 8, 8), 0.2), np.full((1, 8, 8), 0.9)]).astype(np.float32)
    labs = labels4([1, 0, 0, 0], [0, 1, 0, 0])
    out, out_labs, frac = cutmix(imgs, labs, alpha=1.0,
                                 rng=StubRng(beta_value=0.0, center=4))
    assert frac == 1.0
    assert np.allclose(out[0], 0.9) and np.allclose(out[1], 0.2)
    assert np.allclose(out_labs[0], [0, 1, 0, 0])
    assert np.allclose(out_labs[1], [1, 0, 0, 0])


class SwapRng:
    """Real draws for geometry, but the partner permutation is forced to a
    swap so pasted pixels are visibly the other sample's."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)

    def beta(self, a, b):
        return self.inner.beta(a, b)

    def integers(self, lo, hi):
        return self.inner.integers(lo, hi)

    def permutation(self, n):
        return np.arange(n)[::-1]


def test_cutmix_label_weight_matches_counted_pixels():
    h = w = 16
    base = np.zeros((1, h, w))
    other = np.ones((1, h, w))
    for seed in range(8):
        imgs = np.stack([base, other]).astype(np.float32)
        labs = labels4([1, 1, 0, 0], [0, 0, 1, 1])
        out, out_labs, frac = cutmix(imgs, labs, alpha=1.0, rng=SwapRng(seed))
        counted = float((out[0] == 1.0).sum()) / (h * w)
        assert counted == pytest.approx(frac, abs=1e-12)
        if frac > 0:
            assert np.allclose(out_labs[0], [(1 - frac), (1 - frac), frac, frac])


def test_cutmix_alpha_zero_is_identity():
    imgs = np.random.default_rng(1).random((3, 1, 4, 4)).astype(np.float32)
    labs = labels4([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
    out, out_labs, frac = cutmix(imgs, labs, alpha=0.0, rng=np.random.default_rng(2))
    assert frac == 0.0 and out_labs is labs and np.array_equal(out, imgs)


# ------------------------------------------------------------------ randaug

def test_randaug_prob_zero_is_identity():
    img = np.random.default_rng(0).random((1, 16, 16)).astype(np.float32)
    out = randaug_light(img, magnitude=9, prob=0.0, rng=np.random.default_rng(4))
    assert np.array_equal(out, img)
    assert out is not img


@pytest.mark.parametrize("seed", range(6))
def test_randaug_magnitude_zero_is_identity(seed):
    img = np.random.default_rng(seed).random((1, 12, 12)).astype(np.float32)
    out = randaug_light(img, magnitude=0, prob=1.0, rng=np.random.default_rng(seed))
    assert np.allclose(out, img, atol=1e-6)


def test_randaug_rejects_out_of_range_magnitude():
    img = np.zeros((1, 4, 4), dtype=np.float32)
    for bad in (-1, 11):
        with pytest.raises(ValueError):
            randaug_light(img, magnitude=bad, prob=0.5, rng=np.random.default_rng(0))


def test_randaug_deterministic_per_seed():
    img = np.random.default_rng(2).random((3, 20, 20)).astype(np.float32)
    a = randaug_light(img, magnitude=9, prob=0.5, rng=np.random.default_rng(77))
    b = randaug_light(img, magnitude=9, prob=0.5, rng=np.random.default_rng(77))
    c = randaug_light(img, magnitude=9, prob=0.5, rng=np.random.default_rng(78))
    assert np.array_equal(a, b)
    assert a.shape == img.shape and a.dtype == np.float32
    assert not np.array_equal(a, c)


def test_randaug_alters_image_at_high_magnitude():
    img = np.random.default_rng(3).random((1, 16, 16)).astype(np.float32)
    changed = 0
    for seed in range(20):
        out = randaug_light(img, magnitude=9, prob=1.0, rng=np.random.default_rng(seed))
        changed += int(not np.allclose(out, img, atol=1e-4))
    assert changed >= 15


def test_randaug_catalog_is_fixed():
    assert RANDAUG_OPS == ("hflip", "translate", "rotate", "brightness",
                           "contrast", "crop_resize")


def test_randaug_values_stay_in_unit_range():
    img = np.random.default_rng(9).random((1, 16, 16)).astype(np.float32)
    for seed in range(10):
        out = randaug_light(img, magnitude=10, prob=1.0, rng=np.random.default_rng(seed))
        assert out.min() >= -1e-6 and out.max() <= 1.0 + 1e-6


# ------------------------------------------------------ random_crop_resize

def test_random_crop_resize_shape_and_determinism():
    img = np.random.default_rng(0).random((1, 32, 32)).astype(np.float32)
    a = random_crop_resize(img, np.random.default_rng(5))
    b = random_crop_resize(img, np.random.default_rng(5))
    assert a.shape == img.shape and a.dtype == np.float32
    assert np.array_equal(a, b)


def test_random_crop_resize_full_scale_is_identity():
    img = np.random.default_rng(1).random((2, 16, 16)).astype(np.float32)
    out = random_crop_resize(img, np.random.default_rng(0),
                             min_scale=1.0, max_scale=1.0)
    assert np.array_equal(out, img)


def test_random_crop_resize_interpolates_within_range():
    img = np.random.default_rng(2).random((1, 24, 24)).astype(np.float32)
    for seed in range(5):
        out = random_crop_resize(img, np.random.default_rng(seed))
        assert out.min() >= img.min() - 1e-6
        assert out.max() <= img.max() + 1e-6
