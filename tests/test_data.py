"""Procedural data generators and their canonical JSON files."""

import hashlib

import numpy as np
import pytest
from conftest import mutate_json_leaf, rejects
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    FormatError,
    gen_dataset,
    load_dataset,
    make_shapes,
    save_dataset,
)


def test_a_numpy_integer_seed_writes_the_bytes_of_its_int(tmp_path):
    save_dataset(gen_dataset(2, np.int64(3), 6, 6), tmp_path / "numpy.json")
    save_dataset(gen_dataset(2, 3, 6, 6), tmp_path / "int.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "int.json").read_bytes()


def test_shapes_image_depends_only_on_index():
    # a prefix of a larger batch matches the smaller batch bit for bit
    big = make_shapes(8, seed=7)
    small = make_shapes(3, seed=7)
    np.testing.assert_array_equal(big[:3], small)


def test_shapes_tag_separates_streams():
    a = make_shapes(4, seed=7, tag="shapes")
    b = make_shapes(4, seed=7, tag="other")
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("args,digest", [
    # the 64 fit images of the default benchmark config, then two off-square sizes
    ((64, 0, 16, 16, "fit"), "ff0bd58269c235138a3ebde24a848eb603b6ae8a33d03ac9a0aab467f88f9b4d"),
    ((20, 7, 12, 9, "shapes"), "a156bdbf5a3509273d572489ecb9afd96bd1aa45b93d48625500343e6be8ba39"),
    ((10, 3, 5, 31, "shapes"), "24172bbaf4bfd311f7a610b162518f1852967b047a70da5208a292b5baa4145e"),
], ids=["fit-16x16", "shapes-12x9", "shapes-5x31"])
def test_shapes_bytes_are_golden(args, digest):
    # every benchmark input and autoencoder fit starts here, so its bytes are pinned
    assert hashlib.sha256(make_shapes(*args).tobytes()).hexdigest() == digest


def test_shapes_has_flat_saturated_regions():
    imgs = make_shapes(20, seed=1)
    frac_flat = np.mean((imgs == 0.0) | (imgs == 1.0))
    assert frac_flat > 0.2


def test_shapes_rejects_bad_sizes():
    with rejects("n"):
        make_shapes(0, seed=1)
    with rejects("height"):
        make_shapes(2, seed=1, height=3, width=8)
    with rejects("width"):
        make_shapes(2, seed=1, height=8, width=4)


def test_gen_dataset_shapes_payload():
    d = gen_dataset(3, seed=5, height=8, width=8)
    assert d.keys() == {"kind", "seed", "images"} and d["kind"] == "shapes"
    assert np.asarray(d["images"]).shape == (3, 8, 8, 1)
    assert np.asarray(gen_dataset(1, seed=5)["images"]).shape == (1, 16, 16, 1)  # the default


def test_gen_dataset_rejects_bad_inputs():
    with rejects("n"):
        gen_dataset(0, seed=1)
    with rejects("height"):
        gen_dataset(3, seed=1, height=4)


def test_dataset_file_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(gen_dataset(4, seed=11), p1)
    save_dataset(gen_dataset(4, seed=11), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_dataset_file_in_the_older_layout_loads_the_same_images(tmp_path):
    # older files repeated the image count and size beside the images
    d = gen_dataset(3, seed=4, height=6, width=7)
    path = tmp_path / "older.json"
    save_dataset({**d, "n": 3, "height": 6, "width": 7, "channels": 1}, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back["images"], np.asarray(d["images"]))
    assert back["seed"] == 4


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"n": 1, "images": [[[[0.5]]]]}',
    *(f'{{"kind": {kind}, "n": 1, "images": [[[[0.5]]]]}}'
      for kind in ('"mystery"', '"gauss2d"', '["shapes"]', "null")),
    pytest.param('{"kind": "' + "x" * 10_000 + '", "images": [[[[0.5]]]]}', id="long-kind"),
    '{"kind": "shapes", "n": 3}',
    '{"kind": "shapes", "images": []}',
    '{"kind": "shapes", "n": "3", "images": []}',
    '{"kind": "shapes", "n": 1, "images": [[1], [1, 2]]}',
    '{"kind": "shapes", "n": 1, "images": [[[0.5]]]}',
    '{"kind": "shapes", "n": 1, "images": [[[[0.5, 0.5]]]]}',
    pytest.param('{"kind": "shapes", "images": [[[[1' + "0" * 309 + ']]]]}', id="huge-pixel"),
    '{"kind": "gauss2d", "samples": [[0.0, 1.0]], "labels": [0]}',
    '{"kind": "gauss2d", "samples": [["a", 1.0]], "labels": [0], "means": [[0.0, 0.0]]}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
])
def test_load_dataset_rejects_malformed_file(tmp_path, text):
    # named by its path, in a message that does not repeat a large value
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="bad.json") as err:
        load_dataset(path)
    assert len(str(err.value)) < 300 + len(str(path))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets")


@settings(derandomize=True, max_examples=200)
@given(st.data())
def test_mutated_dataset_file_loads_or_fails_naming_it(dataset_dir, data):
    doc = gen_dataset(2, seed=3, height=5, width=5)
    if data.draw(st.booleans()):  # one top-level key goes
        del doc[data.draw(st.sampled_from(sorted(doc)))]
    else:
        mutate_json_leaf(doc, data)
    path = dataset_dir / "mutated.json"
    save_dataset(doc, path)
    try:
        payload = load_dataset(path)
    except FormatError as e:
        assert str(path) in str(e)
    else:
        images = payload["images"]
        assert images.dtype == np.float64 and images.ndim == 4 and images.shape[3] == 1
