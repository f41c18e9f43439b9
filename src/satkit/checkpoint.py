"""Binary checkpoint container.

Layout: 8-byte magic "SATKIT01", uint64 little-endian header length, UTF-8
JSON header, then raw array payloads. The header carries the model config,
free-form metadata (optimizer scalars, RNG state, trainer bookkeeping), and
a manifest of (name, shape, dtype, offset) entries; offsets are relative to
the end of the header. All payloads are little-endian row-major.

Saving is atomic: the file is written under a temporary name in the target
directory and renamed over the target only once complete, so a crash
mid-write leaves the previous checkpoint intact.
"""

import json
import os
import struct

import numpy as np

MAGIC = b"SATKIT01"


def save_checkpoint(path, arrays: dict, config: dict, meta: dict = None) -> None:
    """Write arrays (name -> ndarray or Tensor) plus config/meta, atomically."""
    manifest = []
    payloads = []
    offset = 0
    for name in sorted(arrays):
        arr = arrays[name]
        arr = np.ascontiguousarray(getattr(arr, "data", arr))
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        buf = le.tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "dtype": str(arr.dtype), "offset": offset})
        payloads.append(buf)
        offset += len(buf)
    header = json.dumps({"config": config, "meta": meta or {},
                         "manifest": manifest}, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            for buf in payloads:
                f.write(buf)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (config, meta, arrays). A file cut short anywhere, or with a
    malformed header, raises ``ValueError`` naming it."""

    def read(f, n):
        data = f.read(n)
        if len(data) < n:
            raise ValueError(f"{path}: truncated checkpoint")
        return data

    with open(path, "rb") as f:
        if f.read(8) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<Q", read(f, 8))
        raw = read(f, hlen)
        body = f.read()
    try:  # not UTF-8, not JSON, or not an object with these three keys
        header = json.loads(raw.decode("utf-8"))
        config, meta, manifest = header["config"], header["meta"], header["manifest"]
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{path}: bad checkpoint header ({type(e).__name__}: {e})") from None
    arrays = {}
    for entry in manifest:
        dtype = np.dtype(entry["dtype"]).newbyteorder("<")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + count * dtype.itemsize > len(body):
            raise ValueError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).astype(dtype.newbyteorder("="))
    return config, meta, arrays


def restore_params(params: dict, arrays: dict) -> None:
    """Copy checkpoint arrays into live parameter tensors, validating shape.

    Values are written into each parameter's existing array, so parameters
    that live in an optimizer's arena stay there."""
    for name, p in params.items():
        if name not in arrays:
            raise KeyError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise ValueError(
                f"parameter {name!r}: checkpoint shape {arr.shape} "
                f"conflicts with model shape {p.data.shape}")
        p.data[...] = arr


def rng_state_to_meta(rng: np.random.Generator) -> dict:
    """JSON-safe snapshot of a PCG64 generator state."""
    st = rng.bit_generator.state
    return {"bit_generator": st["bit_generator"],
            "state": str(st["state"]["state"]),
            "inc": str(st["state"]["inc"]),
            "has_uint32": st["has_uint32"],
            "uinteger": st["uinteger"]}


def rng_state_from_meta(meta: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": meta["bit_generator"],
        "state": {"state": int(meta["state"]), "inc": int(meta["inc"])},
        "has_uint32": meta["has_uint32"],
        "uinteger": meta["uinteger"],
    }
    return rng
