"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import numpy as np
import pytest
from conftest import src_env

from stpt import cli
from stpt.cli import main
from stpt.config import load_run_config
from stpt.costs import model_cost
from stpt.evaluation import GroundTruthInstance, write_ground_truth
from stpt.heads import DetectionCandidate, write_candidates
from stpt.tensor import Rng, write_tensor


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("STPT_SEED", raising=False)


def _toy_ini(tmp_path, extra="", outdir="out"):
    path = tmp_path / "run.ini"
    path.write_text(f"[model]\npreset = toy\n[io]\noutput_dir = {tmp_path / outdir}\n{extra}")
    return str(path)


def test_describe_toy(tmp_path, capsys):
    assert main(["describe", "--config", _toy_ini(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stage1" in out and "stage4" in out
    assert "pyramid levels: [8, 4, 2, 1, 1, 1]" in out
    assert "anchors: 17" in out


def test_describe_variant_flag(tmp_path, capsys):
    assert main(["describe", "--config", _toy_ini(tmp_path), "--variant", "GGGG"]) == 0
    out = capsys.readouterr().out
    assert "stage1: kind=global" in out


def test_flops_text_and_csv_agree(tmp_path, capsys):
    ini = _toy_ini(tmp_path)
    assert main(["flops", "--config", ini, "--format", "csv"]) == 0
    csv_rows = capsys.readouterr().out.strip().splitlines()
    total_flops = int(csv_rows[-1].split(",")[5])
    cfg = load_run_config(ini)
    assert total_flops == model_cost(cfg.model, cfg.det).total_flops
    assert main(["flops", "--config", ini]) == 0
    text = capsys.readouterr().out
    assert f"{total_flops / 1e9:.4f}" in text.splitlines()[-1]


def test_flops_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["flops", "--config", _toy_ini(tmp_path), "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("stage,unit,part")


def _read_outputs(outdir):
    det = (outdir / "detections.jsonl").read_bytes()
    manifest = json.loads((outdir / "manifest.json").read_text())
    return det, manifest


def test_forward_outputs_and_determinism(tmp_path, capsys, monkeypatch):
    ini_a = _toy_ini(tmp_path, outdir="a")
    assert main(["forward", "--config", ini_a]) == 0
    det_a, man_a = _read_outputs(tmp_path / "a")

    # Same seed, different output directory: byte-identical artifacts.
    ini_b = tmp_path / "b.ini"
    ini_b.write_text(f"[model]\npreset = toy\n[io]\noutput_dir = {tmp_path / 'b'}\n")
    assert main(["forward", "--config", str(ini_b)]) == 0
    det_b, man_b = _read_outputs(tmp_path / "b")
    assert det_a == det_b
    assert man_a == man_b
    for name in sorted(p.name for p in (tmp_path / "a" / "stages").iterdir()):
        assert (tmp_path / "a" / "stages" / name).read_bytes() == \
            (tmp_path / "b" / "stages" / name).read_bytes()

    # A different seed must change the detections and the manifest hash.
    monkeypatch.setenv("STPT_SEED", "1")
    ini_c = _toy_ini(tmp_path, outdir="c")
    assert main(["forward", "--config", ini_c]) == 0
    det_c, man_c = _read_outputs(tmp_path / "c")
    assert det_c != det_a
    assert man_c["seed"] == 1
    assert man_c["config_hash"] != man_a["config_hash"]

    # Manifest contents describe the run.
    assert man_a["command"] == "forward"
    assert man_a["input"] == "synth"
    assert man_a["stage_shapes"] == [[16, 6, 6, 96], [16, 3, 3, 192],
                                     [8, 2, 2, 384], [4, 1, 1, 768]]
    assert man_a["pyramid_lengths"] == [8, 4, 2, 1, 1, 1]
    assert man_a["num_candidates"] == len(det_a.strip().splitlines())


def test_forward_f32_runs_without_scipy_erf(tmp_path, monkeypatch):
    from scipy import special

    def _raise(*args, **kwargs):
        raise AssertionError("scipy.special.erf called")

    monkeypatch.setattr(special, "erf", _raise)
    assert main(["forward", "--config", _toy_ini(tmp_path)]) == 0
    # The patch reaches GELU's call site: the f64 oracle mode still uses erf.
    ini64 = _toy_ini(tmp_path, extra="[run]\nprecision = f64\n", outdir="out64")
    with pytest.raises(AssertionError, match="erf called"):
        main(["forward", "--config", ini64])


def test_forward_reads_tensor_input(tmp_path, capsys):
    clip = np.zeros((32, 24, 24, 3), dtype=np.float32)
    tensor_path = tmp_path / "clip.stpt"
    write_tensor(tensor_path, clip)
    ini = _toy_ini(tmp_path, extra=f"input = {tensor_path}\n")
    assert main(["forward", "--config", ini]) == 0
    _, manifest = _read_outputs(tmp_path / "out")
    assert manifest["input"] == str(tensor_path)

    wrong_shape = tmp_path / "bad_shape.stpt"
    write_tensor(wrong_shape, np.zeros((8, 24, 24, 3), dtype=np.float32))
    ini2 = _toy_ini(tmp_path, extra=f"input = {wrong_shape}\n")
    assert main(["forward", "--config", ini2]) == 3
    err = capsys.readouterr().err
    assert "shape" in err and "bad_shape.stpt" in err

    wrong_dtype = tmp_path / "bad_dtype.stpt"
    write_tensor(wrong_dtype, np.zeros((32, 24, 24, 3), dtype=np.float64))
    ini3 = _toy_ini(tmp_path, extra=f"input = {wrong_dtype}\n")
    assert main(["forward", "--config", ini3]) == 3
    err = capsys.readouterr().err
    assert "dtype" in err and "bad_dtype.stpt" in err


def test_forward_huge_tensor_dims_exit_3(tmp_path, capsys):
    # A header claiming dims (2^63, 2) and no payload is an input error, not a
    # numpy traceback.
    huge = tmp_path / "huge.stpt"
    huge.write_bytes(b"STPT" + struct.pack("<HBB2Q", 1, 0, 2, 2 ** 63, 2))
    ini = _toy_ini(tmp_path, extra=f"input = {huge}\n")
    assert main(["forward", "--config", ini]) == 3
    assert "huge.stpt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_forward_nan_input_exit_4(tmp_path, capsys):
    clip = np.zeros((32, 24, 24, 3), dtype=np.float32)
    clip[1, 2, 3, 0] = np.nan
    tensor_path = tmp_path / "nan.stpt"
    write_tensor(tensor_path, clip)
    ini = _toy_ini(tmp_path, extra=f"input = {tensor_path}\n")
    assert main(["forward", "--config", ini]) == 4
    assert "error: input: non-finite value at index (1, 2, 3, 0)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _overflowing_input_ini(tmp_path):
    # Finite f32 values this large overflow the layer-norm variance; the run must
    # end at the first block boundary, not write finite but meaningless stages.
    clip = np.full((32, 24, 24, 3), 3e38, dtype=np.float32)
    tensor_path = tmp_path / "huge_values.stpt"
    write_tensor(tensor_path, clip)
    return _toy_ini(tmp_path, extra=f"input = {tensor_path}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forward_overflowing_input_exit_4(tmp_path, capsys):
    assert main(["forward", "--config", _overflowing_input_ini(tmp_path)]) == 4
    assert re.search(r"error: stage\d block\d: non-finite", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_forward_overflowing_input_prints_only_the_error(tmp_path):
    # pytest captures warnings in-process, so only a child process shows that no
    # numpy warning (or numpy source line) reaches stderr before the error.
    env = src_env()
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "stpt.cli", "forward", "--config",
                           _overflowing_input_ini(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage1 block0: non-finite"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_forward_out_of_memory_exit_5(tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 122. GiB for an array with shape (256, 384, 1, 576, 576) "
               "and data type float32")

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(Rng, "truncated_normal", no_memory)
    assert main(["forward", "--config", _toy_ini(tmp_path)]) == 5
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: forward: out of memory: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_eval_gaussian_tiny_sigma_prints_only_the_table(tmp_path):
    # tIoU^2 / 1e-310 overflows; the decay takes exp(-inf) = 0 without a numpy warning.
    preds, gts = tmp_path / "preds.jsonl", tmp_path / "gts.jsonl"
    write_candidates(preds, [
        DetectionCandidate(t_start=ts, t_end=te, class_id=0, score=s, level=0, position=i,
                           video_id="v")
        for i, (ts, te, s) in enumerate([(0.0, 10.0, 0.9), (1.0, 11.0, 0.8), (20.0, 30.0, 0.7)])])
    write_ground_truth(gts, [GroundTruthInstance(video_id="v", t_start=0.0, t_end=10.0,
                                                 class_id=0)])
    ini = _toy_ini(tmp_path, extra="[detection]\nnms_mode = gaussian\nnms_sigma = 1e-310\n")
    env = src_env()
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "stpt.cli", "eval", "--config", ini,
                           "--preds", str(preds), "--gts", str(gts)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1].split() == ["Avg", "100.00"]


@pytest.mark.parametrize("command", ["forward", "synth"])
def test_negative_seed_exit_2(tmp_path, capsys, monkeypatch, command):
    ini = _toy_ini(tmp_path, extra="[run]\nseed = -1\n")
    assert main([command, "--config", ini]) == 2
    assert "[run] seed" in capsys.readouterr().err
    monkeypatch.setenv("STPT_SEED", "-1")
    assert main([command, "--config", _toy_ini(tmp_path)]) == 2
    assert "STPT_SEED" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\ndropout = 0.5\n")
    assert main(["describe", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_forward_zero_fps_is_config_error(tmp_path, capsys):
    ini = _toy_ini(tmp_path, extra="[detection]\nfps = 0\n")
    assert main(["forward", "--config", ini]) == 2
    assert "fps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,where", [
    ("lsta_temporal = 7,8,16\n", "stage1 block0"),
    ("height = 112\nwidth = 112\nvariant = LLLL\n", "stage3 block0"),
], ids=["lsta_temporal", "late_local"])
@pytest.mark.parametrize("command", ["flops", "describe", "forward"])
def test_window_not_divisible_by_reduction_exit_2(tmp_path, capsys, monkeypatch, command,
                                                   model, where):
    def no_weights(*args, **kwargs):
        raise AssertionError("weights drawn for a rejected config")

    monkeypatch.setattr("stpt.cli.init_model_weights", no_weights)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[model]\n{model}[io]\noutput_dir = {tmp_path / 'out'}\n")
    assert main([command, "--config", str(ini)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{where}: window extent 7 must be a multiple of reduction ratio 2"
            in captured.err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,target", [
    ("forward", "afile"), ("forward", "afile/sub"), ("synth", "afile"), ("synth", "afile/sub"),
    ("flops", "afile/x.txt"), ("init-config", "afile/x.ini"),
])
def test_unwritable_output_path_exit_2(tmp_path, capsys, command, target):
    # A path under a regular file cannot be written, even by root.
    (tmp_path / "afile").write_text("")
    path = str(tmp_path / target)
    if command in ("forward", "synth"):
        argv = [command, "--config", _toy_ini(tmp_path, outdir=target)]
    elif command == "flops":
        argv = [command, "--config", _toy_ini(tmp_path), "--out", path]
    else:
        argv = [command, path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ")
    assert path in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("target,errno_text", [
    ("afile", "[Errno 17] File exists"), ("afile/sub", "[Errno 20] Not a directory"),
], ids=["file", "under-file"])
def test_forward_rejects_unwritable_output_before_the_run(tmp_path, capsys, monkeypatch,
                                                          target, errno_text):
    # The message is the one creating the directory would give, and it comes
    # before any weight is drawn; nothing is created.
    (tmp_path / "afile").write_text("")
    ini = _toy_ini(tmp_path, outdir=target)

    def never(*args):
        raise AssertionError("forward drew weights for an unwritable output path")

    monkeypatch.setattr(cli, "init_model_weights", never)
    assert main(["forward", "--config", ini]) == 2
    assert capsys.readouterr().err == f"error: forward: {errno_text}: '{tmp_path / target}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.ini"]
    assert (tmp_path / "afile").read_text() == ""


def test_missing_eval_inputs_exit_code(tmp_path, capsys):
    assert main(["eval", "--preds", str(tmp_path / "nope.jsonl"),
                 "--gts", str(tmp_path / "nope2.jsonl")]) == 3


def test_eval_bad_prediction_record_exit_3(tmp_path, capsys):
    gts = tmp_path / "gts.jsonl"
    gts.write_text('{"video_id": "v", "t_start": 0.0, "t_end": 4.0, "class_id": 0}\n')
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"video_id": "v", "t_start": 5.0, "t_end": 2.0, "class_id": 0, '
                     '"score": 0.9}\n')
    assert main(["eval", "--preds", str(preds), "--gts", str(gts)]) == 3
    assert f"{preds}:1" in capsys.readouterr().err


@pytest.mark.parametrize("which,record", [
    ("preds", '[1, 2]'),
    ("preds", '{"video_id": "v", "t_start": 0.0, "t_end": 4.0, "class_id": 99, "score": 0.9}'),
    ("gts", '{"video_id": "v", "t_start": 0.0, "t_end": 4.0, "class_id": -4}'),
])
def test_eval_bad_record_names_line_exit_3(tmp_path, capsys, which, record):
    files = {"gts": '{"video_id": "v", "t_start": 0.0, "t_end": 4.0, "class_id": 0}',
             "preds": '{"video_id": "v", "t_start": 0.0, "t_end": 4.0, "class_id": 0, '
                      '"score": 0.9}'}
    paths = {}
    for name, good in files.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(good + "\n" + (record + "\n" if name == which else ""))
    assert main(["eval", "--preds", str(paths["preds"]), "--gts", str(paths["gts"])]) == 3
    assert f"{paths[which]}:2" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_gradcheck_points_below_one_exit_2(capsys, points):
    assert main(["gradcheck", "--points", points]) == 2
    captured = capsys.readouterr()
    assert "--points" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("flag,value", [("--videos", "-2"), ("--videos", "0"),
                                        ("--instances", "0"), ("--jitter", "-0.3"),
                                        ("--jitter", "nan"), ("--jitter", "inf")])
def test_synth_bad_argument_exit_2(tmp_path, capsys, flag, value):
    assert main(["synth", "--config", _toy_ini(tmp_path), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_empty_ground_truth_exit_3(tmp_path, capsys):
    ini = _toy_ini(tmp_path)
    assert main(["synth", "--config", ini]) == 0
    capsys.readouterr()
    gts = tmp_path / "empty.jsonl"
    gts.write_text("\n")
    assert main(["eval", "--config", ini, "--preds", str(tmp_path / "out" / "preds.jsonl"),
                 "--gts", str(gts)]) == 3
    captured = capsys.readouterr()
    assert str(gts) in captured.err and captured.out == ""


def test_synth_then_eval_closure(tmp_path, capsys):
    ini = _toy_ini(tmp_path)
    assert main(["synth", "--config", ini, "--videos", "3", "--instances", "4"]) == 0
    capsys.readouterr()
    outdir = tmp_path / "out"
    assert main(["eval", "--config", ini, "--preds", str(outdir / "preds.jsonl"),
                 "--gts", str(outdir / "gts.jsonl")]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[-1].split() == ["Avg", "100.00"]


def test_synth_with_jitter_degrades(tmp_path, capsys):
    ini = _toy_ini(tmp_path)
    assert main(["synth", "--config", ini, "--jitter", "0.15"]) == 0
    capsys.readouterr()
    outdir = tmp_path / "out"
    assert main(["eval", "--config", ini, "--preds", str(outdir / "preds.jsonl"),
                 "--gts", str(outdir / "gts.jsonl")]) == 0
    avg = float(capsys.readouterr().out.splitlines()[-1].split()[1])
    assert avg < 100.0


def test_init_config_roundtrip(tmp_path, capsys):
    path = tmp_path / "defaults.ini"
    assert main(["init-config", str(path)]) == 0
    assert main(["describe", "--config", str(path)]) == 0


def _scipy_modules_after(*argvs: list[str]) -> list[str]:
    """The scipy modules a fresh interpreter holds after running `stpt` on each argv."""
    probe = ("import json, sys\n"
             "import stpt, stpt.cli\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    assert stpt.cli.main(argv) == 0, argv\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_eval_flops_describe_and_init_config_leave_scipy_unloaded(tmp_path):
    # Importing scipy is most of a command's start-up, and only GELU's erf and
    # the normal inverse CDF need it.
    ini = _toy_ini(tmp_path)
    synth = subprocess.run([sys.executable, "-m", "stpt.cli", "synth", "--config", ini],
                           capture_output=True, text=True, env=src_env())
    assert synth.returncode == 0, synth.stderr
    out = tmp_path / "out"
    assert _scipy_modules_after(
        ["eval", "--config", ini, "--preds", str(out / "preds.jsonl"),
         "--gts", str(out / "gts.jsonl")],
        ["flops", "--config", ini], ["describe", "--config", ini],
        ["init-config", str(tmp_path / "defaults.ini")]) == []
    # The probe sees scipy where it is used, so the empty list above is no accident.
    assert "scipy.special" in _scipy_modules_after(["forward", "--config", ini])


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def _declared_entry_point():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["stpt"]
    module, _, func = target.partition(":")
    return module, func


def test_console_script_is_installed(tmp_path):
    args = ["describe", "--config", _toy_ini(tmp_path)]
    runs = []
    # The installed script, wherever one is on PATH.
    exe = shutil.which("stpt")
    if exe:
        runs.append(subprocess.run([exe, *args], capture_output=True, text=True))
    # The entry point declared in [project.scripts], started the way the
    # setuptools wrapper starts it, with the imported package first on the path.
    module, func = _declared_entry_point()
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'stpt'\nsys.exit({func}())")
    runs.append(subprocess.run([sys.executable, "-c", wrapper, *args],
                               capture_output=True, text=True, env=src_env()))
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert "anchors: 17" in proc.stdout
