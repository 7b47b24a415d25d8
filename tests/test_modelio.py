"""Binary model container: round trips, corrupt-file handling, mutated-file properties."""

import json
import math
import struct

import numpy as np
import pytest
from conftest import make_gauss_mixture, mutate_json_leaf, read_model_file, write_model_file
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    AutoencoderInterface,
    Condition,
    DenoiserInterface,
    FormatError,
    IdentityAutoencoder,
    InvlabError,
    LinearAutoencoder,
    LinearGaussianDenoiser,
    MlpDenoiser,
    MlpTrainConfig,
    fit_linear_autoencoder,
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
    c = Condition.unconditional()
    np.testing.assert_array_equal(back.eval(z, 9, c), model.eval(z, 9, c))


def test_mlp_denoiser_round_trip(tmp_path):
    sched = make_linear_schedule(12, 1e-3, 0.05)
    data, labels, _ = make_gauss_mixture(32, seed=2)
    model = train_mlp_denoiser(data, sched, MlpTrainConfig(width=8, max_epochs=3, seed=5), labels)
    path = tmp_path / "mlp.labmdl"
    save_model(model, path)
    back = load_model(path)
    for k in model.params:
        np.testing.assert_array_equal(back.params[k], model.params[k])
    assert back.n_classes == model.n_classes
    assert back.final_loss == model.final_loss
    assert back.trained_epochs == model.trained_epochs
    z = np.array([0.1, -0.4])
    c = Condition.class_label(1)
    np.testing.assert_array_equal(back.eval(z, 7, c), model.eval(z, 7, c))


def test_linear_autoencoder_round_trip(tmp_path):
    imgs = make_shapes(20, seed=3, height=8, width=8)
    ae = fit_linear_autoencoder(imgs, latent_dim=10)
    path = tmp_path / "ae.labmdl"
    save_model(ae, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.w, ae.w)
    np.testing.assert_array_equal(back.mean, ae.mean)
    assert back.image_shape == ae.image_shape
    assert back.leak is None
    x = imgs[0]
    np.testing.assert_array_equal(back.encode(x), ae.encode(x))


def test_leaky_autoencoder_round_trip(tmp_path):
    imgs = make_shapes(20, seed=3, height=8, width=8)
    ae = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8, seed=2)
    path = tmp_path / "leaky.labmdl"
    save_model(ae, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.leak, ae.leak)
    x = imgs[1]
    np.testing.assert_array_equal(back.encode(x), ae.encode(x))


def test_identity_autoencoder_round_trip(tmp_path):
    ae = IdentityAutoencoder((5, 6, 1))
    path = tmp_path / "ident.labmdl"
    save_model(ae, path)
    back = load_model(path)
    assert back.image_shape == (5, 6, 1)


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


def test_save_is_deterministic(tmp_path):
    model = _gauss_model()
    p1, p2 = tmp_path / "a.labmdl", tmp_path / "b.labmdl"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.labmdl"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_model(path)


def test_truncations_rejected(tmp_path):
    path = tmp_path / "gauss.labmdl"
    save_model(_gauss_model(), path)
    raw = path.read_bytes()
    cases = {
        "header-length": raw[:12],
        "header": raw[:20],
        "array": raw[:-8],
    }
    for name, blob in cases.items():
        bad = tmp_path / f"{name}.labmdl"
        bad.write_bytes(blob)
        with pytest.raises(FormatError):
            load_model(bad)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "gauss.labmdl"
    save_model(_gauss_model(), path)
    bad = tmp_path / "trailing.labmdl"
    bad.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_model(bad)


def test_unknown_kind_rejected(tmp_path):
    header = json.dumps({"kind": "mystery", "arrays": []}, sort_keys=True).encode()
    path = tmp_path / "mystery.labmdl"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(FormatError):
        load_model(path)


def test_garbled_header_rejected(tmp_path):
    cases = {
        "not-json": b"{not json",
        "not-an-object": b"[1, 2]",
        "no-manifest": b'{"kind": "identity-autoencoder"}',
        "entry-without-name": b'{"arrays": [{"shape": [3]}], "kind": "linear-gaussian-denoiser"}',
        "entry-without-shape": b'{"arrays": [{"name": "mu"}], "kind": "linear-gaussian-denoiser"}',
        "shape-not-ints": b'{"arrays": [{"name": "mu", "shape": ["a"]}], '
                          b'"kind": "linear-gaussian-denoiser"}',
        "no-dims": b'{"arrays": [], "kind": "identity-autoencoder"}',
        "no-mu": b'{"arrays": [], "dims": {"latent_dim": 0}, '
                 b'"kind": "linear-gaussian-denoiser", "schedule": {"t_train": 0}}',
        "no-w1": b'{"arrays": [], "dims": {"latent_dim": 2, "n_classes": 0}, '
                 b'"kind": "mlp-denoiser", "seed": 0}',
        "dims-not-an-object": b'{"arrays": [], "dims": [5, 6, 1], "kind": "identity-autoencoder"}',
    }
    for name, blob in cases.items():
        path = tmp_path / f"{name}.labmdl"
        path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(FormatError):
            load_model(path)


def test_mlp_array_of_the_wrong_shape_rejected(tmp_path, tiny_mlp):
    # w3 stored transposed holds as many values, so only its shape gives it away
    path = tmp_path / "mlp.labmdl"
    save_model(tiny_mlp[0], path)
    header, body = read_model_file(path)
    next(e for e in header["arrays"] if e["name"] == "w3")["shape"].reverse()
    write_model_file(path, header, body)
    with pytest.raises(FormatError, match="w3"):
        load_model(path)


def test_unsupported_model_type_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_model(object(), tmp_path / "nope.labmdl")


# ---------------------------------------------------------------- mutated files

@pytest.fixture(scope="module")
def model_files(tmp_path_factory, tiny_mlp):
    """{kind: (path, interface, config key)}, one saved model of each kind."""
    imgs = make_shapes(20, seed=3, height=8, width=8)
    models = {"mlp-denoiser": (tiny_mlp[0], DenoiserInterface, "denoiser.path"),
              "linear-gaussian-denoiser": (_gauss_model(), DenoiserInterface, "denoiser.path"),
              "linear-autoencoder": (fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8),
                                     AutoencoderInterface, "autoencoder.path"),
              "identity-autoencoder": (IdentityAutoencoder((5, 6, 1)), AutoencoderInterface,
                                       "autoencoder.path")}
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
    schedule's length and a seed for every kind."""
    if isinstance(model, MlpDenoiser):
        return {"dims": {"latent_dim": model.latent_dim, "n_classes": model.n_classes,
                         "width": model.width}, "schedule": {"t_train": model.sched.t_train}}
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
        save_model(back, tmp_path / "resaved")
        assert (tmp_path / "resaved").read_bytes() == path.read_bytes()


def test_save_of_a_loaded_model_is_byte_identical(model_files, tmp_path):
    for kind, (path, _, _) in model_files.items():
        save_model(load_model(path), tmp_path / kind)
        assert (tmp_path / kind).read_bytes() == path.read_bytes()


def test_header_holds_only_what_the_arrays_cannot_say(model_files):
    fields = {kind: set(read_model_file(path)[0]) - {"kind", "arrays"}
              for kind, (path, _, _) in model_files.items()}
    assert fields == {"mlp-denoiser": {"seed", "final_loss", "trained_epochs"},
                      "linear-gaussian-denoiser": set(), "linear-autoencoder": {"dims"},
                      "identity-autoencoder": {"dims"}}
