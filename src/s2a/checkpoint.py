"""Model checkpoints: MAGIC, the config's JSON length as a little-endian
uint64, the config as JSON, then every tensor `parameter_shapes(config)`
names, in that order, as raw little-endian float32."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from .model import M2MConfig, M2MModel, parameter_shapes, sinusoidal_positions
from .tokenizer import SEGMENT_LEN

MAGIC_PREFIX = b"S2A-M2M-CKPT-"
VERSION = "v3"
MAGIC = MAGIC_PREFIX + VERSION.encode() + b"\n"


def save_checkpoint(model: M2MModel) -> bytes:
    """Serialize the config and all parameter tensors (cast to float32)."""
    header = json.dumps(dataclasses.asdict(model.config)).encode()
    blob = b"".join(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
                    for name, _ in parameter_shapes(model.config))
    return MAGIC + struct.pack("<Q", len(header)) + header + blob


def load_checkpoint(data: bytes) -> M2MModel:
    """The model in checkpoint bytes; ValueError for any malformed input."""
    if not data.startswith(MAGIC):
        if data.startswith(MAGIC_PREFIX):
            version = data[len(MAGIC_PREFIX):len(MAGIC) + 16].partition(b"\n")[0]
            raise ValueError(f"checkpoint version {version.decode(errors='replace')!r} is not "
                             f"read, only {VERSION!r}: retrain")
        raise ValueError("not a model checkpoint (bad magic string)")
    try:
        return _parse(data, len(MAGIC))
    except (TypeError, ArithmeticError, RecursionError, struct.error) as err:
        raise ValueError(f"malformed checkpoint: {err!r}") from err


def _parse(data: bytes, pos: int) -> M2MModel:
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    config = M2MConfig(**json.loads(data[pos:pos + header_len]))
    pos += header_len

    # one tensor at a time, so a config that claims 10**9 layers stops at
    # the first tensor the bytes do not hold
    params = {}
    for name, shape in parameter_shapes(config):
        count = math.prod(shape)
        if pos + 4 * count > len(data):
            raise ValueError(f"tensor {name} {list(shape)} runs past the end of the checkpoint")
        params[name] = np.frombuffer(data, "<f4", count, pos).reshape(shape).astype(np.float64)
        pos += 4 * count
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} bytes follow the config's last tensor")
    model = M2MModel(config, params, sinusoidal_positions(SEGMENT_LEN, config.d_model))
    model.check_finite()
    return model
