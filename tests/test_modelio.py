"""Binary model container: round trips, corrupt-file handling, mutated-file properties."""

import json
import math
import re
import struct

import numpy as np
import pytest
from conftest import (make_gauss_mixture, mutate_json_leaf, read_model_file, widen_cemb,
                      write_model_file)
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    Condition,
    DenoiserInterface,
    FormatError,
    InvlabError,
    LinearAutoencoder,
    LinearGaussianDenoiser,
    MlpDenoiser,
    MlpTrainConfig,
    fit_linear_autoencoder,
    identity_autoencoder,
    load_model,
    make_linear_schedule,
    make_shapes,
    save_model,
    train_mlp_denoiser,
)
from invlab import benchmark

MAGIC = b"LABMDL1\n"


def _gauss_model():
    sched = make_linear_schedule(17, 2e-4, 0.04)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    return LinearGaussianDenoiser(rng.standard_normal(3), a @ a.T + np.eye(3), sched)


def test_gaussian_denoiser_round_trip(tmp_path):
    model = _gauss_model()
    path = tmp_path / "gauss.labmdl"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.mu, model.mu)
    np.testing.assert_array_equal(back.sigma, model.sigma)
    np.testing.assert_array_equal(back.sched.betas, model.sched.betas)
    np.testing.assert_array_equal(back.sched.alpha_bars, model.sched.alpha_bars)
    assert back.sched.t_train == 17
    z = np.array([0.3, -0.7, 1.2])
    c = Condition()
    np.testing.assert_array_equal(back.eval(z, 9, c), model.eval(z, 9, c))


def test_mlp_denoiser_round_trip(tmp_path):
    sched = make_linear_schedule(12, 1e-3, 0.05)
    data = make_gauss_mixture(32, seed=2)
    model = train_mlp_denoiser(data, sched, MlpTrainConfig(width=8, max_epochs=3), 5)
    path = tmp_path / "mlp.labmdl"
    save_model(model, path)
    back = load_model(path)
    for k in model.params:
        np.testing.assert_array_equal(back.params[k], model.params[k])
    assert back.final_loss == model.final_loss
    z = np.array([0.1, -0.4])
    c = Condition()
    np.testing.assert_array_equal(back.eval(z, 7, c), model.eval(z, 7, c))


@pytest.mark.parametrize("leak_scale", [0.0, 1.8, None], ids=["linear", "leaky", "identity"])
def test_autoencoder_round_trip(tmp_path, leak_scale):
    imgs = make_shapes(20, seed=3, height=8, width=6)
    ae = (identity_autoencoder((8, 6, 1)) if leak_scale is None
          else fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=leak_scale, seed=2))
    save_model(ae, tmp_path / "ae.labmdl")
    back = load_model(tmp_path / "ae.labmdl")
    # an exact fit saves no leak
    assert back.image_shape == (8, 6, 1) and (back.leak is None) == (leak_scale != 1.8)
    for name in ("w", "mean", "leak"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ae, name))
    np.testing.assert_array_equal(back.encode(imgs[1]), ae.encode(imgs[1]))


def write_identity_file(path, image_shape) -> None:
    """A file of the former identity codec: its kind and image shape, and no arrays."""
    header = {"arrays": [], "dims": {"image_shape": list(image_shape)},
              "kind": "identity-autoencoder"}
    write_model_file(path, header, b"")


def test_identity_autoencoder_file_is_a_format_error_naming_its_kind(tmp_path):
    # nothing writes the kind: the identity codec saves as a linear-autoencoder file
    save_model(identity_autoencoder((5, 6, 1)), tmp_path / "new")
    assert read_model_file(tmp_path / "new")[0]["kind"] == "linear-autoencoder"
    old = tmp_path / "old.labmdl"
    write_identity_file(old, (5, 6, 1))
    with pytest.raises(FormatError, match=re.escape(str(old))) as err:
        load_model(old)
    assert err.value.code == "format-error"
    assert "unknown model kind 'identity-autoencoder'" in str(err.value)


def test_array_larger_than_its_file_is_format_error(tmp_path):
    # a 170-byte file whose manifest asks for an 11.9 GiB matrix is refused before any of it
    # is allocated
    path = tmp_path / "big.labmdl"
    header = {"arrays": [{"name": "w", "shape": [40000, 40000]}, {"name": "mean", "shape": [0]}],
              "dims": {"image_shape": [200, 200, 1]}, "kind": "linear-autoencoder"}
    write_model_file(path, header, b"")
    with pytest.raises(FormatError, match=re.escape(str(path))) as err:
        load_model(path)
    assert "truncated array 'w'" in str(err.value)


def test_header_is_sorted_json_with_manifest(tmp_path):
    path = tmp_path / "gauss.labmdl"
    save_model(_gauss_model(), path)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    assert header["kind"] == "linear-gaussian-denoiser"
    names = [e["name"] for e in header["arrays"]]
    assert names == ["mu", "sigma", "betas"]
    # canonical key order in the serialized header
    assert raw[16 : 16 + hlen].decode() == json.dumps(header, sort_keys=True)


def test_mlp_trained_with_numpy_integers_saves_the_same_file(tmp_path):
    # a NumPy integer seed and epoch count write the bytes their Python ints write
    sched = make_linear_schedule(12, 1e-3, 0.05)
    data = make_gauss_mixture(32, seed=2)
    for name, k in (("python", 2), ("numpy", np.int64(2))):
        save_model(train_mlp_denoiser(data, sched, MlpTrainConfig(width=8, max_epochs=k), k),
                   tmp_path / name)
    assert (tmp_path / "numpy").read_bytes() == (tmp_path / "python").read_bytes()


def test_save_is_deterministic(tmp_path):
    model = _gauss_model()
    p1, p2 = tmp_path / "a.labmdl", tmp_path / "b.labmdl"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_damaged_file_is_a_format_error_saying_what_is_wrong(tmp_path):
    path = tmp_path / "gauss.labmdl"
    save_model(_gauss_model(), path)
    raw = path.read_bytes()
    mystery = json.dumps({"kind": "mystery", "arrays": []}).encode()
    no_latents = json.dumps({"kind": "linear-autoencoder", "dims": {"image_shape": [8, 8, 1]},
                             "arrays": [{"name": "w", "shape": [0, 64]},
                                        {"name": "mean", "shape": [64]}]}).encode()
    cases = {  # name: (the file's bytes, what its refusal says)
        "bad-magic": (b"NOTMAGIC" + raw[8:], "bad magic in"),
        "header-length": (raw[:12], "truncated header length in"),
        "header": (raw[:20], "truncated header in"),
        "array": (raw[:-8], "truncated array 'betas' in"),
        "trailing": (raw + b"\x00", "1 trailing bytes in"),
        "unknown-kind": (MAGIC + struct.pack("<Q", len(mystery)) + mystery,
                         "unknown model kind 'mystery' in"),
        "short-header": (MAGIC + struct.pack("<Q", 2) + b"{}", "unknown model kind None in"),
        # an axis of length 0 is a shape; the codec then refuses a w of no rows
        "no-latents": (MAGIC + struct.pack("<Q", len(no_latents)) + no_latents + bytes(8 * 64),
                       "linear-autoencoder model in"),
    }
    for name, (blob, says) in cases.items():
        bad = tmp_path / f"{name}.labmdl"
        bad.write_bytes(blob)
        with pytest.raises(FormatError, match=re.escape(f"{says} {bad}")):
            load_model(bad)


def test_garbled_header_rejected(tmp_path):
    cases = {
        "not-json": b"{not json",
        "not-an-object": b"[1, 2]",
        "no-manifest": b'{"kind": "linear-autoencoder"}',
        "entry-without-name": b'{"arrays": [{"shape": [3]}], "kind": "linear-gaussian-denoiser"}',
        "entry-without-shape": b'{"arrays": [{"name": "mu"}], "kind": "linear-gaussian-denoiser"}',
        "shape-not-ints": b'{"arrays": [{"name": "mu", "shape": ["a"]}], '
                          b'"kind": "linear-gaussian-denoiser"}',
        "no-dims": b'{"arrays": [], "kind": "linear-autoencoder"}',
        "no-mu": b'{"arrays": [], "dims": {"latent_dim": 0}, '
                 b'"kind": "linear-gaussian-denoiser", "schedule": {"t_train": 0}}',
        "no-w1": b'{"arrays": [], "dims": {"latent_dim": 2, "n_classes": 0}, '
                 b'"kind": "mlp-denoiser", "seed": 0}',
        "dims-not-an-object": b'{"arrays": [], "dims": [5, 6, 1], "kind": "linear-autoencoder"}',
        "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
        # no values, so the byte count passes, but NumPy builds no array of these shapes
        "axis-past-numpy": b'{"arrays": [{"name": "w", "shape": [0, 1' + b"0" * 30 + b']}], '
                           b'"kind": "linear-autoencoder"}',
        "size-past-numpy": b'{"arrays": [{"name": "w", "shape": [1099511627776, 0, '
                           b'1099511627776]}], "kind": "linear-autoencoder"}',
        "rank-past-numpy": b'{"arrays": [{"name": "w", "shape": [' + b", ".join([b"0"] * 65)
                           + b']}], "kind": "linear-autoencoder"}',
    }
    for name, blob in cases.items():
        path = tmp_path / f"{name}.labmdl"
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(FormatError, match=name):
            load_model(path)


@pytest.mark.parametrize("entry,named", [
    ({"name": "w", "shape": ["a"] * 5000}, "array 'w' in "),
    ({"name": "w", "shape": json.loads("[" * 60 + "0" + "]" * 60)}, "array 'w' in "),
    ({"name": "w" * 10_000}, "array entry 0 in ")],
    ids=["long-shape", "nested-shape", "long-name"])
def test_a_large_array_entry_leaves_a_short_message_naming_it(tmp_path, entry, named):
    path = tmp_path / "m.labmdl"
    blob = json.dumps({"arrays": [entry], "kind": "linear-autoencoder"}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert named in str(err.value) and len(str(err.value)) < 300 + len(str(path))


def test_mlp_array_of_the_wrong_shape_rejected(tmp_path, tiny_mlp):
    # w3 stored transposed holds as many values, so only its shape gives it away
    path = tmp_path / "mlp.labmdl"
    save_model(tiny_mlp[0], path)
    header, body = read_model_file(path)
    next(e for e in header["arrays"] if e["name"] == "w3")["shape"].reverse()
    write_model_file(path, header, body)
    with pytest.raises(FormatError, match="w3"):
        load_model(path)


def test_mlp_file_with_more_than_one_cemb_row_is_refused(tmp_path, tiny_mlp):
    # a class-labelled model's file: refused, not cut down to its first row
    path = tmp_path / "labelled.labmdl"
    save_model(tiny_mlp[0], path)
    widen_cemb(path, 3)
    with pytest.raises(FormatError, match=re.escape(str(path))) as err:
        load_model(path)
    assert err.value.code == "format-error" and "cemb has shape (3, 16)" in str(err.value)


def test_unsupported_model_type_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_model(object(), tmp_path / "nope.labmdl")


@pytest.mark.parametrize("image_shape", [[8.0, 8, 1], [8, 8, True], [-8, 8, 1], [0, 8, 1],
                                         [8, 8], [8, 8, 1, 1]])
def test_header_integer_that_is_not_a_fitting_int_is_format_error(model_files, tmp_path,
                                                                   image_shape):
    # int() would read 8.0 as 8 and True as 1; a size below 1 gives no image, and an image
    # has three sizes
    header, body = read_model_file(model_files["linear-autoencoder"][0])
    header["dims"]["image_shape"] = image_shape
    path = tmp_path / "bad.labmdl"
    write_model_file(path, header, body)
    with pytest.raises(FormatError, match=re.escape(str(path))) as e:
        load_model(path)
    assert "image_shape" in str(e.value)


@pytest.mark.parametrize("value", ["abc", [1, 2], {"x": 1}, True, -5, -0.5, math.nan, math.inf])
def test_mlp_final_loss_that_is_not_a_finite_number_at_least_0_is_format_error(
        model_files, tmp_path, value):
    # save_model would write any of these back, so the loader must refuse them
    header, body = read_model_file(model_files["mlp-denoiser"][0])
    header["final_loss"] = value
    path = tmp_path / "bad.labmdl"
    write_model_file(path, header, body)
    with pytest.raises(FormatError, match=re.escape(str(path))) as e:
        load_model(path)
    assert "final_loss" in str(e.value)


@pytest.mark.parametrize("value", [None, 0, 0.25])
def test_mlp_final_loss_none_or_a_number_at_least_0_round_trips(model_files, tmp_path, value):
    header, body = read_model_file(model_files["mlp-denoiser"][0])
    header["final_loss"] = value
    path = tmp_path / "ok.labmdl"
    write_model_file(path, header, body)
    save_model(load_model(path), tmp_path / "again.labmdl")
    assert load_model(tmp_path / "again.labmdl").final_loss == value


# ---------------------------------------------------------------- mutated files

@pytest.fixture(scope="module")
def model_files(tmp_path_factory, tiny_mlp):
    """{kind: (path, class, config key)}, one model file of each kind a file may hold."""
    imgs = make_shapes(20, seed=3, height=8, width=8)
    models = {"mlp-denoiser": (tiny_mlp[0], DenoiserInterface, "denoiser.path"),
              "linear-gaussian-denoiser": (_gauss_model(), DenoiserInterface, "denoiser.path"),
              "linear-autoencoder": (fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8),
                                     LinearAutoencoder, "autoencoder.path")}
    out = tmp_path_factory.mktemp("models")
    for kind, (model, iface, key) in models.items():
        save_model(model, out / kind)
        models[kind] = (out / kind, iface, key)
    return models


def _arrays(model):
    """Every array a loaded model holds, its schedule's included."""
    found = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    found += list(getattr(model, "params", {}).values())
    if getattr(model, "sched", None) is not None:
        found += [model.sched.betas, model.sched.alpha_bars]
    return found


@settings(derandomize=True, max_examples=200)
@given(st.data())
def test_mutated_model_file_loads_finite_or_fails_naming_its_key(model_files, data):
    path, iface, key = model_files[data.draw(st.sampled_from(sorted(model_files)))]
    header, body = read_model_file(path)
    if body and data.draw(st.booleans()):  # one array entry becomes NaN or infinite
        i = 8 * data.draw(st.integers(0, len(body) // 8 - 1))
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        body = body[:i] + struct.pack("<d", value) + body[i + 8:]
    else:
        mutate_json_leaf(header, data)
    mutated = path.with_suffix(".mutated")
    write_model_file(mutated, header, body)
    try:
        model = benchmark._load_model_file(mutated, iface, key)
    except InvlabError as e:
        assert e.context["key"] == key
    else:
        assert all(np.all(np.isfinite(a)) for a in _arrays(model))


# ---------------------------------------------------------------- older files, re-saves


def _older_fields(model) -> dict:
    """The header fields that older files wrote beside those read today: the sizes, the
    schedule's length and a seed for every kind, and an MLP's epoch count."""
    if isinstance(model, MlpDenoiser):
        return {"dims": {"latent_dim": model.latent_dim, "n_classes": 0, "width": model.width},
                "schedule": {"t_train": model.sched.t_train}, "seed": 5, "trained_epochs": 3}
    if isinstance(model, LinearGaussianDenoiser):
        return {"dims": {"latent_dim": model.latent_dim},
                "schedule": {"t_train": model.sched.t_train}, "seed": 0}
    dims = {"image_shape": list(model.image_shape)}
    if isinstance(model, LinearAutoencoder):
        dims["latent_dim"] = model.latent_dim
    return {"dims": dims, "seed": 0}


def test_file_in_the_older_header_layout_loads_the_same_model(model_files, tmp_path):
    for kind, (path, _, _) in model_files.items():
        model = load_model(path)
        header, body = read_model_file(path)
        older = tmp_path / kind
        write_model_file(older, {**header, **_older_fields(model)}, body)
        back = load_model(older)
        assert type(back) is type(model) and back.latent_dim == model.latent_dim
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(back), _arrays(model), strict=True))
        if isinstance(model, DenoiserInterface):  # and predicts the same bits
            z, c = np.linspace(-1.0, 1.0, model.latent_dim), Condition()
            assert np.array_equal(back.eval(z, 3, c), model.eval(z, 3, c))
        # it saves as the model it holds does: for every written kind, the file itself
        save_model(back, tmp_path / "resaved")
        save_model(model, tmp_path / "saved")
        assert (tmp_path / "resaved").read_bytes() == (tmp_path / "saved").read_bytes()


def test_save_of_a_loaded_model_is_byte_identical(model_files, tmp_path):
    for kind, (path, _, _) in model_files.items():
        save_model(load_model(path), tmp_path / kind)
        assert (tmp_path / kind).read_bytes() == path.read_bytes()


def test_header_holds_only_what_the_arrays_cannot_say(model_files):
    fields = {kind: set(read_model_file(path)[0]) - {"kind", "arrays"}
              for kind, (path, _, _) in model_files.items()}
    assert fields == {"mlp-denoiser": {"final_loss"},
                      "linear-gaussian-denoiser": set(), "linear-autoencoder": {"dims"}}
