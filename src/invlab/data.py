"""The procedural image dataset and its canonical JSON on-disk form.

`make_shapes` renders small grayscale images of random rectangles, discs and
ramps, with large exactly-flat 0.0/1.0 regions, so clamping after a lossy
decode has something to bite on. A dataset file holds "kind": "shapes", the
seed and the images; their count and size are the images' shape. Files are
JSON with sorted keys and compact separators, so one (n, seed, size) always
produces the same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError, is_int, require, shown
from .rng import derive_rng


def _pick_level(rng) -> float:
    """Mostly saturated values: 0.0 and 1.0 each ~30%, otherwise uniform."""
    r = rng.uniform()
    if r < 0.3:
        return 0.0
    if r < 0.6:
        return 1.0
    return float(rng.uniform(0.1, 0.9))


def _draw_rect(img, rng, value):
    h, w = img.shape
    y0 = int(rng.integers(0, h - 1))
    x0 = int(rng.integers(0, w - 1))
    y1 = int(rng.integers(y0 + 1, h + 1))
    x1 = int(rng.integers(x0 + 1, w + 1))
    img[y0:y1, x0:x1] = value


def _draw_disc(img, rng, value):
    h, w = img.shape
    cy = rng.uniform(0, h)
    cx = rng.uniform(0, w)
    rad = rng.uniform(2.0, min(h, w) / 2.5)
    img[(np.arange(h)[:, None] - cy) ** 2 + (np.arange(w) - cx) ** 2 <= rad * rad] = value


def _draw_ramp(img, rng, value):
    h, w = img.shape
    v2 = float(rng.uniform())
    y0 = int(rng.integers(0, h - 3))
    x0 = int(rng.integers(0, w - 3))
    y1 = int(rng.integers(y0 + 3, h + 1))
    x1 = int(rng.integers(x0 + 3, w + 1))
    ramp = np.linspace(value, v2, x1 - x0)
    if rng.uniform() < 0.5:
        img[y0:y1, x0:x1] = ramp[np.newaxis, :]
    else:
        ramp = np.linspace(value, v2, y1 - y0)
        img[y0:y1, x0:x1] = ramp[:, np.newaxis]


def make_shapes(n: int, seed: int, height: int = 16, width: int = 16,
                tag: str = "shapes") -> np.ndarray:
    """(n, height, width, 1) float64 images in [0, 1].

    Image i depends only on (seed, tag, i), so disjoint tags give disjoint
    deterministic streams (e.g. benchmark instances vs backend-fitting data).
    """
    require(is_int(n) and n >= 1, "n", n, "an integer >= 1")
    # the disc radius is drawn from [2, min(h, w)/2.5]
    require(is_int(height) and height >= 5, "height", height, "an integer >= 5")
    require(is_int(width) and width >= 5, "width", width, "an integer >= 5")
    out = np.empty((n, height, width, 1))
    for i in range(n):
        rng = derive_rng(seed, tag, i)
        img = np.full((height, width), _pick_level(rng))
        for _ in range(int(rng.integers(2, 5))):
            kind = int(rng.integers(0, 3))
            value = _pick_level(rng)
            (_draw_rect, _draw_disc, _draw_ramp)[kind](img, rng, value)
        out[i, :, :, 0] = np.clip(img, 0.0, 1.0)
    return out


def gen_dataset(n: int, seed: int, height: int = 16, width: int = 16) -> dict:
    """The shapes dataset payload, ready for canonical JSON serialization."""
    images = make_shapes(n, seed, height, width)  # refuses a seed that is not an integer
    return {"kind": "shapes", "seed": int(seed), "images": images.tolist()}


def save_dataset(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        f.write("\n")


def load_dataset(path) -> dict:
    """The payload stored at `path`, its arrays as NumPy; FormatError if malformed."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except (ValueError, RecursionError) as e:  # invalid JSON or UTF-8, or nested too deep
            raise FormatError(f"dataset file {path} is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"dataset file {path} does not hold a JSON object")
    if payload.get("kind") != "shapes":
        raise FormatError(f"dataset file {path} holds kind {shown(payload.get('kind'))}, not 'shapes'")
    if "images" not in payload:
        raise FormatError(f"dataset file {path} lacks 'images'")
    try:
        images = np.asarray(payload["images"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:  # ragged, or not numbers
        raise FormatError(f"'images' in dataset file {path} is malformed: {e}") from None
    if images.ndim != 4 or images.shape[3] != 1:
        raise FormatError(f"dataset file {path} holds images of shape {images.shape}, "
                          "need (n, h, w, 1)")
    return {**payload, "images": images}
