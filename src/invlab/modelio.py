"""Binary container for trained models.

Layout: the 8-byte magic "LABMDL1\\n", an 8-byte little-endian header length,
a JSON header (kind, the fields the arrays cannot give, array manifest), then
each manifest array as raw little-endian float64 in declared order. Sizes are
read off the arrays, and a denoiser's schedule travels as its beta array, so
any schedule round-trips exactly. Loaders ignore header keys they do not read.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .autoencoder import IdentityAutoencoder, LinearAutoencoder
from .denoiser import _PARAM_ORDER, LinearGaussianDenoiser, MlpDenoiser
from .errors import FormatError, InvlabError
from .schedule import NoiseSchedule

MAGIC = b"LABMDL1\n"


def _mlp_payload(model: MlpDenoiser):
    header = {"seed": model.seed, "final_loss": model.final_loss,
              "trained_epochs": model.trained_epochs}
    arrays = [(name, model.params[name]) for name in _PARAM_ORDER]
    return header, arrays + [("betas", model.sched.betas)]


def _mlp_load(header: dict, arrays: dict) -> MlpDenoiser:
    return MlpDenoiser(arrays, NoiseSchedule(arrays["betas"]), seed=int(header["seed"]),
                       final_loss=header.get("final_loss"),
                       trained_epochs=int(header.get("trained_epochs", 0)))


def _gauss_payload(model: LinearGaussianDenoiser):
    return {}, [("mu", model.mu), ("sigma", model.sigma), ("betas", model.sched.betas)]


def _gauss_load(header: dict, arrays: dict) -> LinearGaussianDenoiser:
    return LinearGaussianDenoiser(arrays["mu"], arrays["sigma"], NoiseSchedule(arrays["betas"]))


def _dims(model) -> dict:
    return {"dims": {"image_shape": list(model.image_shape)}}


def _linear_ae_payload(model: LinearAutoencoder):
    arrays = [("w", model.w), ("mean", model.mean)]
    if model.leak is not None:
        arrays.append(("leak", model.leak))
    return _dims(model), arrays


def _linear_ae_load(header: dict, arrays: dict) -> LinearAutoencoder:
    return LinearAutoencoder(arrays["w"], arrays["mean"], tuple(header["dims"]["image_shape"]),
                             leak=arrays.get("leak"))


def _identity_ae_load(header: dict, arrays: dict) -> IdentityAutoencoder:
    return IdentityAutoencoder(tuple(header["dims"]["image_shape"]))


# kind -> (class, (header fields, [(array name, array)]) of a model, loader of (header, arrays))
_CODECS = {
    "mlp-denoiser": (MlpDenoiser, _mlp_payload, _mlp_load),
    "linear-gaussian-denoiser": (LinearGaussianDenoiser, _gauss_payload, _gauss_load),
    "linear-autoencoder": (LinearAutoencoder, _linear_ae_payload, _linear_ae_load),
    "identity-autoencoder": (IdentityAutoencoder, lambda m: (_dims(m), []), _identity_ae_load),
}


def save_model(model, path) -> None:
    kind = next((k for k, (cls, _, _) in _CODECS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise FormatError(f"no persistence handler for {type(model).__name__}")
    fields, arrays = _CODECS[kind][1](model)
    header = {"kind": kind, **fields,
              "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path):
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic in {path}")
    off = len(MAGIC)
    if len(raw) < off + 8:
        raise FormatError(f"truncated header length in {path}")
    (hlen,) = struct.unpack("<Q", raw[off : off + 8])
    off += 8
    if len(raw) < off + hlen:
        raise FormatError(f"truncated header in {path}")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"unreadable header in {path}: {e}") from None
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"header in {path} is not a JSON object")
    kind = header.get("kind")
    if not (isinstance(kind, str) and kind in _CODECS):
        raise FormatError(f"unknown model kind {kind!r} in {path}")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise FormatError(f"header in {path} has no array list")
    arrays = {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and "shape" in entry):
            raise FormatError(f"array entry {entry!r} in {path} needs a string name and a shape")
        shape = entry["shape"]
        if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
            raise FormatError(f"array entry {entry!r} in {path} has a malformed shape")
        shape = tuple(shape)
        nbytes = math.prod(shape) * 8  # exact, where np.prod would wrap around
        if len(raw) < off + nbytes:
            raise FormatError(f"truncated array {entry['name']!r} in {path}")
        arrays[entry["name"]] = np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(shape).copy()
        off += nbytes
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes in {path}")
    try:
        return _CODECS[kind][2](header, arrays)
    except (InvlabError, KeyError, TypeError, ValueError, OverflowError) as e:
        # a missing or ill-typed field or array, or values the model's own checks refuse
        raise FormatError(f"{kind} model in {path} is malformed: {e!r}") from None
