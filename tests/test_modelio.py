"""Binary model container: round trips and corrupt-file handling."""

import json
import struct

import numpy as np
import pytest

from invlab import (
    Condition,
    FormatError,
    IdentityAutoencoder,
    LinearGaussianDenoiser,
    MlpTrainConfig,
    fit_linear_autoencoder,
    load_model,
    make_gauss_mixture,
    make_linear_schedule,
    make_shapes,
    save_model,
    train_mlp_denoiser,
)

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


def test_unsupported_model_type_rejected(tmp_path):
    with pytest.raises(FormatError):
        save_model(object(), tmp_path / "nope.labmdl")
