"""Seeded fuzzing of the input boundaries: eval JSON lines, tensor files and
bundle manifests, configs.

Every case is a valid input mutated by draws from `Rng`, so a failure replays
from its seed and case number. The property is the documented contract of each
reader: it either accepts the input, whose fields then all have their documented
JSON types and what it returns obeys the record rules, or it raises a StptError
with the documented exit code (3 for data files, 2 for configuration). Any other
exception, or another exit code, fails the test and prints the input.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from stpt.config import _SCHEMA, load_run_config
from stpt.costs import model_cost
from stpt.errors import StptError
from stpt.evaluation import read_ground_truth
from stpt.heads import read_candidates
from stpt.tensor import Rng, read_bundle, read_tensor, write_bundle, write_tensor

SEED = 20240
CASES = 250
NUM_CLASSES = 20

# JSON values that no record field should take, or that sit on a boundary.
HOSTILE_JSON = [None, True, False, [], [1, 2], {}, {"a": 1}, "", "x", "1.5", "NaN",
                0, -1, 1, 19, 20, 10 ** 30, -(10 ** 30), 10 ** 400, 0.5, 1.5, -0.0,
                1e308, -1e308, math.nan, math.inf, -math.inf]
GOOD_CANDIDATE = {"video_id": "v0", "t_start": 1.0, "t_end": 2.5, "class_id": 3,
                  "score": 0.5, "level": 1, "position": 2}
GOOD_TRUTH = {"video_id": "v0", "t_start": 1.0, "t_end": 2.5, "class_id": 3}

# Config values: numbers on and past every documented range, words from every
# enumerated key, separators, and text no typed key accepts.
HOSTILE_INI = ["", "-1", "0", "1", "7", "0.5", "-0.1", "nan", "inf", "-inf", "1e309",
               "99999999999999999999", "9" * 5000, "0x10", "1_0", " 5 ", "abc", "true",
               "maybe", "1,2", "1,2,3", "0,0,0", "-1,2,3", "8,8,16,4", "toy", "default",
               "LLGG", "GGGG", "LLGX", "f16", "f32", "f64", "thumos", "anet", "gaussian",
               "linear", "%(x)s", "é"]
# Values of each config value type, on and just past its documented range.
TYPED_INI = {
    "int": ["0", "1", "7", "64", "-1", "99999999999999999999"],
    "float": ["0", "0.5", "1", "-0.1", "nan", "inf", "1e309"],
    "_parse_triple": ["8,8,16", "1,1,1", "0,8,16", "-1,2,3", "1000,1,1"],
    "_parse_bool": ["true", "false", "0"],
    "str": ["toy", "default", "LLGG", "GGGG", "LLLL", "thumos", "anet", "linear",
            "gaussian", "f32", "f64", ""],
}


def _pick(rng: Rng, items):
    return items[int(rng.integers(0, len(items)))]


def _outcome(fn, arg, code: int, shown: str):
    """fn(arg), or None after a StptError with exit code `code`; else fail."""
    try:
        return fn(arg)
    except StptError as exc:
        if exc.exit_code != code:
            pytest.fail(f"exit code {exc.exit_code}, want {code} ({exc}) for input:\n{shown}")
    except Exception as exc:  # noqa: BLE001 - anything else breaks the contract
        pytest.fail(f"{type(exc).__name__}: {exc}\nfor input:\n{shown}")
    return None


def _mutated_record(rng: Rng, good: dict) -> str:
    """One JSON line: the good record with one or two seeded mutations."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return json.dumps(_pick(rng, HOSTILE_JSON))  # not an object at all
    if kind == 1:
        text = json.dumps(good)
        cut = int(rng.integers(0, len(text)))
        return text[:cut] + _pick(rng, ["", "}", ",", "]", "\"", "NaN", "\\"]) + text[cut + 1:]
    d = dict(good)
    for _ in range(int(rng.integers(1, 3))):
        key = _pick(rng, sorted(good) + ["extra"])
        if kind == 2:
            d.pop(key, None)
        else:
            d[key] = _pick(rng, HOSTILE_JSON)
    return json.dumps(d)


def _fields_typed(text: str) -> bool:
    """Whether every record's fields have their documented JSON types."""
    for line in text.splitlines():
        d = json.loads(line)
        if any(type(d[k]) not in (int, float) for k in ("t_start", "t_end", "score") if k in d):
            return False
        if any(type(d[k]) is not int or d[k] < 0 for k in ("level", "position") if k in d):
            return False
        if "video_id" in d and type(d["video_id"]) is not str:
            return False
    return True


def _check_records(read, good: dict, tmp_path, label: str) -> None:
    rng = Rng(SEED).child(label)
    path = tmp_path / f"{label}.jsonl"
    for i in range(CASES):
        crng = rng.child(f"case{i}")
        lines = [json.dumps(good)] + [_mutated_record(crng, good)
                                      for _ in range(int(crng.integers(1, 3)))]
        text = "\n".join(lines) + "\n"
        path.write_text(text)
        out = _outcome(lambda p: read(p, NUM_CLASSES), path, 3, f"case {i}:\n{text}")
        if out is not None:
            assert _fields_typed(text), text
        for rec in out or ():
            assert type(rec.t_start) is float and type(rec.t_end) is float, text
            assert type(rec.video_id) is str, text
            assert math.isfinite(rec.t_start) and math.isfinite(rec.t_end), text
            assert rec.t_start < rec.t_end, text
            assert type(rec.class_id) is int and 0 <= rec.class_id < NUM_CLASSES, text
            assert math.isfinite(getattr(rec, "score", 0.0)), text
    path.write_bytes(json.dumps(good).encode() + b"\n\xff\xfe\n")
    _outcome(lambda p: read(p, NUM_CLASSES), path, 3, "invalid UTF-8")


def test_fuzz_read_candidates(tmp_path):
    _check_records(read_candidates, GOOD_CANDIDATE, tmp_path, "candidates")


def test_fuzz_read_ground_truth(tmp_path):
    _check_records(read_ground_truth, GOOD_TRUTH, tmp_path, "ground_truth")


def test_fuzz_read_tensor(tmp_path):
    rng = Rng(SEED).child("tensor")
    payload = np.arange(6, dtype="<f4").tobytes()
    good = b"STPT" + struct.pack("<HBB2Q", 1, 0, 2, 2, 3) + payload
    dims_pool = [0, 1, 2, 3, 6, 2 ** 32, 2 ** 62, 2 ** 63, 2 ** 64 - 1]
    path = tmp_path / "t.stpt"
    for i in range(CASES):
        crng = rng.child(f"case{i}")
        raw = bytearray(good)
        for _ in range(int(crng.integers(1, 3))):
            kind = int(crng.integers(0, 4))
            if kind == 0:  # any header byte: magic, version, dtype code, rank
                raw[int(crng.integers(0, 8))] = int(crng.integers(0, 256))
            elif kind == 1:
                raw[7] = _pick(crng, [0, 1, 2, 3, 4, 255])
            elif kind == 2:
                at = 8 + 8 * int(crng.integers(0, 2))
                raw[at:at + 8] = struct.pack("<Q", _pick(crng, dims_pool))
            else:
                raw[6] = _pick(crng, [0, 1, 2])
        end = int(crng.integers(0, 3))
        if end == 1:
            del raw[int(crng.integers(0, len(raw))):]
        elif end == 2:
            raw += bytes(int(crng.integers(1, 9)))
        path.write_bytes(bytes(raw))
        arr = _outcome(read_tensor, path, 3, f"case {i}: {bytes(raw)!r}")
        if arr is not None:
            rank = raw[7]
            assert arr.shape == struct.unpack(f"<{rank}Q", bytes(raw[8:8 + 8 * rank])), raw
            assert arr.dtype in (np.float32, np.float64), raw


def test_fuzz_read_bundle(tmp_path):
    rng = Rng(SEED).child("bundle")
    bundle = tmp_path / "b"
    write_bundle(bundle, {"alpha": np.arange(6, dtype=np.float32).reshape(2, 3),
                          "beta": np.zeros(4)})
    # A tensor that fits alpha's entry, just outside the bundle: a reader that
    # follows "../outside.stpt" would accept it, and the checks below would fail.
    write_tensor(tmp_path / "outside.stpt", np.zeros((2, 3), dtype=np.float32))
    good = (bundle / "manifest.json").read_bytes()
    files = ["alpha.stpt", "beta.stpt", "manifest.json", "missing.stpt", "../outside.stpt",
             str(tmp_path / "outside.stpt"), "./alpha.stpt", "b/alpha.stpt", "alpha.stpt/",
             "", ".", "..", "alpha.stpt\0"]
    dims_pool = [[2, 3], [4], [3, 2], [], [2, 3, 1], [0, 3], [-2, 3], [2.0, 3], [True, 3],
                 ["2", 3], [2 ** 64, 3], [None]]
    path = bundle / "manifest.json"
    for i in range(CASES):
        crng = rng.child(f"case{i}")
        manifest = json.loads(good)
        kind = int(crng.integers(0, 5))  # 0: the manifest, 1: an entry, 2-4: a field
        for _ in range(int(crng.integers(1, 3))):
            name = _pick(crng, sorted(manifest) or ["alpha"])
            if kind == 0:
                manifest = _pick(crng, HOSTILE_JSON)  # not an object of objects
                break
            if kind == 1:
                manifest[name] = _pick(crng, HOSTILE_JSON)
            elif type(manifest.get(name)) is dict:
                entry, key = manifest[name], _pick(crng, ["file", "dims", "dtype", "extra"])
                if kind == 2:
                    entry.pop(key, None)
                else:
                    entry[key] = _pick(crng, HOSTILE_JSON if kind == 3 else
                                       files if key == "file" else dims_pool)
        raw = json.dumps(manifest).encode()
        if crng.integers(0, 4) == 0:  # break the JSON text or its UTF-8
            cut = int(crng.integers(0, len(raw)))
            bad = _pick(crng, [b"", b"}", b",", b"]", b"\"", b"\\", b"\xff"])
            raw = raw[:cut] + bad + raw[cut + 1:]
        path.write_bytes(raw)
        out = _outcome(read_bundle, bundle, 3, f"case {i}: {raw!r}")
        if out is not None:
            manifest = json.loads(raw)
            assert list(out) == list(manifest), raw
            for name, arr in out.items():
                fname = manifest[name]["file"]
                assert fname not in ("", "..") and Path(fname).name == fname, raw  # inside
                assert list(arr.shape) == manifest[name]["dims"], raw
                assert arr.dtype in (np.float32, np.float64), raw
    path.write_bytes(good.replace(b"alpha.stpt", b"alpha\xff.stpt"))
    _outcome(read_bundle, bundle, 3, "invalid UTF-8")


def test_fuzz_load_run_config(tmp_path, monkeypatch):
    rng = Rng(SEED).child("config")
    path = tmp_path / "run.ini"
    keys = [(section, key) for section, names in _SCHEMA.items() for key in names]
    # Three values in four are typed, so many cases get past parsing and reach
    # the range checks and the model geometry.
    for i in range(4 * CASES):  # most cases fail early; more reach the typed checks
        crng = rng.child(f"case{i}")
        lines: dict[str, list[str]] = {}
        for _ in range(int(crng.integers(1, 4))):
            section, key = _pick(crng, keys)
            pool = TYPED_INI[_SCHEMA[section][key].__name__] if crng.integers(0, 4) else HOSTILE_INI
            lines.setdefault(section, []).append(f"{key} = {_pick(crng, pool)}")
        body = "".join(f"[{s}]\n" + "\n".join(kv) + "\n" for s, kv in lines.items())
        kind = int(crng.integers(0, 16))
        if kind == 0:
            body = "[model]\nframes = 64\nframes = 32\n" + body  # duplicate key
        elif kind == 1:
            body = f"{_pick(crng, keys)[1]} = 1\n" + body  # no section header
        elif kind == 2:
            body += f"[{_pick(crng, ['training', 'MODEL', 'run.extra'])}]\nx = 1\n"
        elif kind == 3:
            body += "[run]\n" + _pick(crng, ["seed", "= 4", "[io", "threads = 2"]) + "\n"
        env = _pick(crng, [None] * 6 + ["-1", "4x", "", "7", "1e3", "0"])
        if env is None:
            monkeypatch.delenv("STPT_SEED", raising=False)
        else:
            monkeypatch.setenv("STPT_SEED", env)
        path.write_text(body)
        cfg = _outcome(load_run_config, str(path), 2,
                       f"case {i}, STPT_SEED={env!r}:\n{body}")
        if cfg is not None:  # an accepted config must be costable, as `stpt flops` does
            assert cfg.seed >= 0, body
            _outcome(lambda c: model_cost(c.model, c.det), cfg, 2, body)
    path.write_bytes(b"[run]\nseed = \xff\xfe\n")
    monkeypatch.delenv("STPT_SEED", raising=False)
    _outcome(load_run_config, str(path), 2, "invalid UTF-8")
