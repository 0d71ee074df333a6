"""Config file parsing, overrides, and the effective-settings hash."""

import pytest

from stpt.backbone import default_config, toy_config
from stpt import config
from stpt.config import load_run_config, write_default_config
from stpt.errors import ConfigError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("STPT_SEED", raising=False)


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_defaults_reproduce_standard_setup():
    cfg = load_run_config(None)
    assert cfg.model == default_config()
    assert cfg.det.num_classes == 20 and cfg.det.clip_fps == 10.0
    assert cfg.profile == "thumos"
    assert cfg.eval_cfg.thresholds == (0.3, 0.4, 0.5, 0.6, 0.7)
    assert cfg.seed == 0
    assert cfg.input_path is None and cfg.output_dir == "stpt_out"
    assert cfg.model.dtype == "f32"


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[training]\nlr = 0.1\n")
    with pytest.raises(ConfigError, match=r"\[training\]"):
        load_run_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[model]\ndropout = 0.1\n")
    with pytest.raises(ConfigError, match="dropout"):
        load_run_config(path)


@pytest.mark.parametrize("text,needle", [
    ("[model]\nframes = abc\n", "frames"),
    ("[model]\ncpe = maybe\n", "cpe"),
    ("[model]\nlsta_temporal = 1,2\n", "lsta_temporal"),
    ("[run]\nprecision = f16\n", "precision"),
    ("[model]\npreset = huge\n", "preset"),
    ("[detection]\nprofile = charades\n", "charades"),
    ("[detection]\nfps = 0\n", "fps"),
    ("[detection]\nfps = -1\n", "fps"),
    ("[detection]\nfps = nan\n", "fps"),
    ("[detection]\nfps = inf\n", "fps"),
    ("[detection]\ntop_k = 0\n", "top_k"),
    ("[detection]\nnms_threshold = 7\n", "nms_threshold"),
    ("[detection]\nnms_threshold = -0.1\n", "nms_threshold"),
    ("[detection]\nnms_threshold = nan\n", "nms_threshold"),
    ("[detection]\nnms_mode = gaussian\nnms_sigma = 0\n", "nms_sigma"),
    ("[detection]\nnms_sigma = nan\n", "nms_sigma"),
    ("[detection]\nnms_mode = gaussian\nnms_sigma = inf\n", "nms_sigma"),
    ("[detection]\nnms_sigma = 1e400\n", "nms_sigma"),
    ("[run]\nseed = -1\n", "seed"),
    ("[model]\nlsta_temporal = 0,8,16\n", "window"),
    # Windows that the reduction ratios do not divide, which attention rejects:
    # one given by lsta_temporal, one that the default layout derives for a
    # late stage switched to local.
    ("[model]\nlsta_temporal = 7,8,16\n",
     r"stage1 block0: window extent 7 must be a multiple of reduction ratio 2"),
    ("[model]\nheight = 112\nwidth = 112\nvariant = LLLL\n",
     r"stage3 block0: window extent 7 must be a multiple of reduction ratio 2"),
])
def test_bad_values_are_named(tmp_path, text, needle):
    with pytest.raises(ConfigError, match=needle):
        load_run_config(_write(tmp_path, text))


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(str(tmp_path / "absent.ini"))
    with pytest.raises(ConfigError, match="malformed"):
        load_run_config(_write(tmp_path, "seed = 4\n"))


def test_toy_preset(tmp_path):
    cfg = load_run_config(_write(tmp_path, "[model]\npreset = toy\n"))
    assert cfg.model == toy_config()
    with pytest.raises(ConfigError, match="frames"):
        load_run_config(_write(tmp_path, "[model]\npreset = toy\nframes = 64\n"))
    with pytest.raises(ConfigError, match="lsta_temporal"):
        load_run_config(_write(tmp_path, "[model]\npreset = toy\nlsta_temporal = 4,4,8\n"))


def test_model_knobs(tmp_path):
    path = _write(tmp_path, "[model]\nframes = 64\nheight = 48\nwidth = 48\n"
                            "variant = GGGG\ncpe = false\nlsta_temporal = 4,4,8\n")
    cfg = load_run_config(path)
    assert cfg.model.input_dims == (64, 48, 48)
    assert all(s.kind == "global" for s in cfg.model.stages)
    assert not cfg.model.cpe_enabled


def test_cli_overrides_beat_file(tmp_path):
    path = _write(tmp_path, "[model]\nvariant = LLGG\n")
    cfg = load_run_config(path, variant="LLLL")
    assert all(s.kind == "local" for s in cfg.model.stages)


def test_env_seed_override(tmp_path, monkeypatch):
    path = _write(tmp_path, "[run]\nseed = 3\n")
    assert load_run_config(path).seed == 3
    monkeypatch.setenv("STPT_SEED", "41")
    assert load_run_config(path).seed == 41
    monkeypatch.setenv("STPT_SEED", "4x")
    with pytest.raises(ConfigError, match="STPT_SEED"):
        load_run_config(path)
    monkeypatch.setenv("STPT_SEED", "-1")
    with pytest.raises(ConfigError, match="STPT_SEED"):
        load_run_config(path)
    monkeypatch.setenv("STPT_SEED", "0")
    assert load_run_config(path).seed == 0


def test_detection_overrides_only_when_present(tmp_path):
    cfg = load_run_config(_write(tmp_path, "[detection]\nprofile = anet\n"))
    assert cfg.eval_cfg.nms_threshold == 0.85  # profile default untouched
    cfg2 = load_run_config(_write(
        tmp_path, "[detection]\nprofile = anet\nnms_mode = gaussian\ntop_k = 50\n"))
    assert cfg2.eval_cfg.nms_mode == "gaussian"
    assert cfg2.eval_cfg.top_k == 50
    assert cfg2.eval_cfg.nms_threshold == 0.85


def test_precision_propagates(tmp_path):
    cfg = load_run_config(_write(tmp_path, "[run]\nprecision = f64\n"))
    assert cfg.model.dtype == "f64"


def test_config_hash_tracks_effective_settings(tmp_path):
    base = load_run_config(None).config_hash()
    assert base == load_run_config(None).config_hash()  # stable
    assert load_run_config(_write(tmp_path, "[run]\nseed = 1\n")).config_hash() != base
    assert load_run_config(_write(tmp_path, "[model]\nvariant = GGGG\n")).config_hash() != base
    assert load_run_config(_write(tmp_path, "[io]\ninput = clip.npy\n")).config_hash() != base
    # The output directory is a sink: it never changes what gets computed.
    same = load_run_config(_write(tmp_path, "[io]\noutput_dir = elsewhere\n")).config_hash()
    assert same == base


def test_config_hash_literals(tmp_path):
    # Pure JSON and SHA-256, so the same on every platform. A change that
    # moves either hash must update it here and say why.
    assert load_run_config(None).config_hash() == \
        "7fd6fe93c1bb027a52b117f7e94590fa64f4a03f177cfdb0e3536f5f3ea9e07f"
    assert load_run_config(_write(tmp_path, "[model]\npreset = toy\n")).config_hash() == \
        "b5807972170d42fbaa0c5b326e63ff1a5e7439540249949ec24ba08277404ae9"


# A valid value, other than the default, for every key of the schema.
_NON_DEFAULT = {
    "model": {"preset": "toy", "frames": "128", "height": "64", "width": "64",
              "variant": "GGGG", "cpe": "false", "lsta_temporal": "4,8,16"},
    "detection": {"profile": "anet", "num_classes": "10", "fps": "5.0", "top_k": "50",
                  "nms_mode": "gaussian", "nms_threshold": "0.6", "nms_sigma": "0.7"},
    "io": {"input": "clip.npy", "output_dir": "elsewhere"},
    "run": {"seed": "1", "precision": "f64"},
}


def test_every_key_but_output_dir_moves_config_hash(tmp_path):
    assert {s: set(k) for s, k in _NON_DEFAULT.items()} == \
        {s: set(k) for s, k in config._SCHEMA.items()}
    base = load_run_config(None).config_hash()
    for section, keys in config._SCHEMA.items():
        for key in keys:
            value = _NON_DEFAULT[section][key]
            moved = load_run_config(_write(tmp_path, f"[{section}]\n{key} = {value}\n"))
            if (section, key) == ("io", "output_dir"):
                assert moved.config_hash() == base
            else:
                assert moved.config_hash() != base, f"[{section}] {key}"


def test_write_default_config_roundtrip(tmp_path):
    path = tmp_path / "defaults.ini"
    write_default_config(path)
    cfg = load_run_config(str(path))
    assert cfg.config_hash() == load_run_config(None).config_hash()
    text = path.read_text()
    for section in ("[model]", "[detection]", "[io]", "[run]"):
        assert section in text


def test_effective_is_json_safe():
    import json
    eff = load_run_config(None).effective()
    blob = json.dumps(eff, sort_keys=True)
    assert "output_dir" not in blob
    assert "stages" in eff["model"] and len(eff["model"]["stages"]) == 4
