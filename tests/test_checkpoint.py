"""Checkpoint container: bitwise round trips, validation, RNG snapshots,
and the committed checkpoint that pins the format."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from satkit.autodiff import ParamArena, Tensor
from satkit.checkpoint import (load_checkpoint, restore_params,
                               rng_state_from_meta, rng_state_to_meta,
                               save_checkpoint)
from satkit.model import ModelConfig, SATModel


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "w": rng.normal(size=(4, 3)),
        "v": rng.normal(size=(7,)).astype(np.float32),
        "n": np.array(3, dtype=np.int64),
        "t": Tensor(rng.normal(size=(2, 2))),  # Tensors unwrap to .data
    }
    config = {"d_m": 8, "combine": "concat"}
    meta = {"epoch": 2, "lr": 0.125}
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, arrays, config, meta)
    config2, meta2, back = load_checkpoint(p)
    assert config2 == config and meta2 == meta
    assert sorted(back) == sorted(arrays)
    for name, arr in arrays.items():
        want = getattr(arr, "data", arr)
        got = back[name]
        assert got.dtype == np.asarray(want).dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_restore_params_validation(tmp_path):
    params = {"a": Tensor(np.zeros((2, 2))), "b": Tensor(np.ones(3))}
    save_checkpoint(tmp_path / "c.ckpt", {"a": np.full((2, 2), 5.0)}, {})
    _, _, arrays = load_checkpoint(tmp_path / "c.ckpt")
    with pytest.raises(KeyError):
        restore_params(params, arrays)
    arrays["b"] = np.zeros((4,))
    with pytest.raises(ValueError):
        restore_params(params, arrays)
    arrays["b"] = np.arange(3.0)
    restore_params(params, arrays)
    np.testing.assert_array_equal(params["a"].data, 5.0)
    np.testing.assert_array_equal(params["b"].data, [0.0, 1.0, 2.0])
    # restored data is a private copy
    arrays["a"][0, 0] = -1.0
    assert params["a"].data[0, 0] == 5.0


def test_restore_params_writes_into_arena_views(tmp_path):
    params = {"a": Tensor(np.zeros((2, 2)), requires_grad=True),
              "b": Tensor(np.ones(3), requires_grad=True)}
    arena = ParamArena(params)
    save_checkpoint(tmp_path / "c.ckpt", {"a": np.full((2, 2), 5.0), "b": np.arange(3.0)}, {})
    _, _, arrays = load_checkpoint(tmp_path / "c.ckpt")
    restore_params(params, arrays)
    for name, p in params.items():
        assert np.shares_memory(p.data, arena.data), name
        np.testing.assert_array_equal(p.data, arrays[name])
    np.testing.assert_array_equal(arena.data[arena.slots["b"]], [0.0, 1.0, 2.0])


def test_interrupted_save_keeps_previous_file(tmp_path, monkeypatch):
    import builtins

    import satkit.checkpoint as ckpt

    p = tmp_path / "last.ckpt"
    save_checkpoint(p, {"w": np.arange(6.0)}, {"epoch": 1})
    before = p.read_bytes()

    class Crash(RuntimeError):
        pass

    class CrashOnThirdWrite:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise Crash("write failed midway")
            return self.f.write(data)

    monkeypatch.setattr(ckpt, "open", lambda path, mode: CrashOnThirdWrite(
        builtins.open(path, mode)), raising=False)
    with pytest.raises(Crash):
        save_checkpoint(p, {"w": np.zeros(6)}, {"epoch": 2})
    assert p.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [p]


def test_magic_validation(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    # a file cut short in the preamble, the header or the payload names itself
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"w": np.arange(6.0)}, {"d": 1})
    blob = good.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    for end in (12, 16 + hlen // 2, 16 + hlen + 20, len(blob) - 1):
        cut = tmp_path / f"cut{end}.ckpt"
        cut.write_bytes(blob[:end])
        with pytest.raises(ValueError, match=f"cut{end}.ckpt: truncated"):
            load_checkpoint(cut)


@pytest.mark.parametrize("header,want", [(b"{not json", "JSONDecodeError"),
                                         (b"\xff\xfe{}", "UnicodeDecodeError"),
                                         (b'{"config": {}, "meta": {}}', "KeyError: 'manifest'")],
                         ids=["not-json", "not-utf8", "no-manifest"])
def test_a_malformed_header_names_the_file(tmp_path, header, want):
    # a header that is not JSON, not UTF-8, or without a manifest
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"SATKIT01" + len(header).to_bytes(8, "little") + header)
    with pytest.raises(ValueError, match=f"bad.ckpt: bad checkpoint header \\({want}"):
        load_checkpoint(bad)


@pytest.mark.parametrize("change", [
    {"name": None}, {"shape": None}, {"dtype": None}, {"offset": None},
    {"dtype": "nope"}, {"dtype": "object"}, {"offset": -8}, {"shape": [-3]},
], ids=["no-name", "no-shape", "no-dtype", "no-offset", "unknown-dtype", "object-dtype",
        "negative-offset", "negative-dim"])
def test_a_malformed_manifest_entry_names_the_file(tmp_path, change):
    # each entry save_checkpoint never writes: a key missing (None here), a
    # dtype numpy does not know or that is not numeric, a negative offset or
    # a negative dim
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"w": np.arange(6.0)}, {})
    blob = good.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + hlen])
    entry = header["manifest"][0]
    for key, value in change.items():
        if value is None:
            del entry[key]
        else:
            entry[key] = value
    raw = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"SATKIT01" + len(raw).to_bytes(8, "little") + raw + blob[16 + hlen:])
    with pytest.raises(ValueError) as err:
        load_checkpoint(bad)
    assert str(err.value).startswith(f"{bad}: ")


def test_rng_state_round_trip():
    rng = np.random.default_rng(123)
    rng.normal(size=17)  # advance away from the seed state
    meta = rng_state_to_meta(rng)
    # survives JSON (the 128-bit state is stringified)
    meta = json.loads(json.dumps(meta))
    clone = rng_state_from_meta(meta)
    np.testing.assert_array_equal(clone.normal(size=10), rng.normal(size=10))
    np.testing.assert_array_equal(clone.integers(0, 100, size=5),
                                  rng.integers(0, 100, size=5))


def test_model_save_load_round_trip(tmp_path):
    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=1, n_pred_blocks=1, d_joint=8, vocab_size=5)
    model = SATModel(cfg, seed=4)
    model.save(tmp_path / "m.ckpt", meta={"note": "x"})
    back, meta, _ = SATModel.load(tmp_path / "m.ckpt")
    assert meta == {"note": "x"}
    assert back.config == cfg
    for name, p in model.params.items():
        assert back.params[name].data.tobytes() == p.data.tobytes()


def test_a_missing_parameter_names_the_file(tmp_path):
    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=1, n_pred_blocks=1, d_joint=8, vocab_size=5)
    model = SATModel(cfg, seed=4)
    arrays = {k: v for k, v in model.params.items() if k != "joint.w_out"}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays, asdict(cfg))
    with pytest.raises(ValueError) as err:
        SATModel.load(path)
    assert str(err.value) == f"{path}: checkpoint is missing parameter 'joint.w_out'"


FIXTURE = Path(__file__).resolve().parents[1] / "satbench" / "fixture" / "decode.ckpt"


def test_retired_combine_key_loads_only_as_concat(tmp_path):
    # the committed checkpoint stores combine = concat, the joint every
    # model builds; the deleted additive joint's value names the file
    config, meta, arrays = load_checkpoint(FIXTURE)
    assert config["combine"] == "concat"
    config["combine"] = "add"
    save_checkpoint(tmp_path / "add.ckpt", arrays, config, meta)
    with pytest.raises(ValueError, match=r"add\.ckpt: combine = 'add'"):
        SATModel.load(tmp_path / "add.ckpt")
    for value in ("concat", "add"):
        (tmp_path / f"{value}.config").write_text(f"d_m = 8\ncombine = {value}\n")
    assert ModelConfig.load(tmp_path / "concat.config") == ModelConfig(d_m=8)
    with pytest.raises(ValueError, match=r"add\.config: combine = 'add'"):
        ModelConfig.load(tmp_path / "add.config")


def test_committed_checkpoint_still_loads():
    # the decode benchmark's committed checkpoint pins the format: every
    # stored parameter name and shape must match the model it builds
    model, _, arrays = SATModel.load(FIXTURE)
    assert sorted(arrays) == sorted(model.params)
    for name, p in model.params.items():
        assert p.data.shape == arrays[name].shape and np.array_equal(p.data, arrays[name]), name
