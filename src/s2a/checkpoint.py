"""Model checkpoints: JSON header + raw little-endian float32 tensors."""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .model import M2MConfig, M2MModel, parameter_shapes, sinusoidal_positions
from .tokenizer import VocabSpec

MAGIC = b"S2A-M2M-CKPT-v1\n"


def save_checkpoint(model: M2MModel) -> bytes:
    """Serialize config, seed, and all parameter tensors (cast to float32)."""
    manifest = []
    blob = bytearray()
    for name in sorted(model.params):
        tensor = np.ascontiguousarray(model.params[name], dtype="<f4")
        manifest.append(
            {"name": name, "shape": list(tensor.shape), "offset": len(blob), "dtype": "<f4"}
        )
        blob += tensor.tobytes()
    config = dataclasses.asdict(model.config)
    header = json.dumps({"config": config, "tensors": manifest}).encode()
    return MAGIC + struct.pack("<Q", len(header)) + header + bytes(blob)


def load_checkpoint(data: bytes) -> M2MModel:
    """The model in checkpoint bytes; ValueError for any malformed input."""
    if not data.startswith(MAGIC):
        raise ValueError("not a model checkpoint (bad magic string)")
    try:
        return _parse(data, len(MAGIC))
    except (KeyError, TypeError, ArithmeticError, struct.error) as err:
        raise ValueError(f"malformed checkpoint: {err!r}") from err


def _parse(data: bytes, pos: int) -> M2MModel:
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    header = json.loads(data[pos:pos + header_len])
    pos += header_len

    cfg_dict = dict(header["config"])
    cfg_dict["vocab"] = VocabSpec(**cfg_dict["vocab"])
    config = M2MConfig(**cfg_dict)
    _check_manifest(header["tensors"], parameter_shapes(config))

    params = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = pos + entry["offset"]
        raw = np.frombuffer(data, dtype=entry["dtype"], count=count, offset=start)
        params[entry["name"]] = raw.reshape(shape).astype(np.float64)
    model = M2MModel(config, params, sinusoidal_positions(config.max_seq_len, config.d_model))
    model.check_finite()
    return model


def _check_manifest(entries: list[dict], shapes: dict[str, tuple[int, ...]]) -> None:
    """ValueError unless the tensors are exactly the config's, with its shapes."""
    names = [entry["name"] for entry in entries]
    if sorted(names) != sorted(shapes):
        missing = sorted(set(shapes) - set(names))
        unexpected = sorted(set(names) - set(shapes))
        raise ValueError(f"tensors do not match the config: missing {missing}, "
                         f"unexpected {unexpected} (or a name repeats)")
    for entry in entries:
        if tuple(entry["shape"]) != shapes[entry["name"]]:
            raise ValueError(
                f"tensor {entry['name']} has shape {entry['shape']}, "
                f"the config needs {list(shapes[entry['name']])}"
            )
