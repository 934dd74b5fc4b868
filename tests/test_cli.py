"""CLI behaviour: outputs, determinism, exit-code mapping, configuration."""

import json
import os
import subprocess
import sys

import pytest

from nsdyn import cli

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "nsdyn", *argv],
        capture_output=True, text=True, cwd=PKG_ROOT, env=full_env)


@pytest.fixture(scope="module")
def noncommuting_file(tmp_path_factory):
    # two generators that do not commute, with nonuniform weights; the
    # cocycle and duality identities then fail, which is the exit-1 path
    doc = {
        "name": "faulty",
        "atoms": [0, 1, 2],
        "weights": [1.0, 2.0, 4.0],
        "generators": [[1, 2, 0], [1, 0, 2]],
    }
    path = tmp_path_factory.mktemp("cli") / "noncommuting.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestStat:
    def test_rotation_closed_form(self):
        out = run_cli("stat", "--action", "zoo:cyclic", "--params", "N=4",
                      "--g", "atom:0", "--n", "4,8,16", "--window", "corner")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "n,window,a_n,support,ms"
        assert lines[1:] == ["4,corner,1.0,4,0", "8,corner,0.5,4,0",
                             "16,corner,0.25,4,0"]

    def test_invalid_n_is_a_usage_error(self):
        out = run_cli("stat", "--action", "zoo:cyclic", "--params", "N=4",
                      "--g", "atom:0", "--n", "0")
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_missing_g_is_a_usage_error(self):
        out = run_cli("stat", "--action", "fixture:C4", "--n", "4,8")
        assert out.returncode == 2

    def test_output_file_and_env_dir(self, tmp_path):
        out = run_cli("stat", "--action", "fixture:C4", "--g", "atom:0",
                      "--n", "4,8", "--out", "series.csv",
                      env={"NSDYN_OUT_DIR": str(tmp_path)})
        assert out.returncode == 0
        assert (tmp_path / "series.csv").read_text().startswith("n,window")


class TestVerdict:
    def test_translation_verdict(self):
        out = run_cli("verdict", "--action", "fixture:TR1", "--g", "atom:0",
                      "--n", "4,8,16,32,64")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["label"] == "dissipative-consistent"

    def test_non_nested_sequence_is_a_usage_error(self):
        out = run_cli("verdict", "--action", "fixture:C4", "--g", "atom:0",
                      "--g", "atom:1", "--n", "4,8")
        assert out.returncode == 2


class TestCocycleCheck:
    def test_fixture_passes(self):
        out = run_cli("cocycle-check", "--action", "fixture:OD3",
                      "--radius", "3")
        assert out.returncode == 0
        assert json.loads(out.stdout)["passed"] is True

    def test_injected_fault_exits_one(self, noncommuting_file):
        out = run_cli("cocycle-check", "--action", noncommuting_file,
                      "--radius", "1")
        assert out.returncode == 1
        doc = json.loads(out.stdout)
        assert doc["passed"] is False
        assert doc["violations"]


class TestDualityCheck:
    def test_two_atom_pair(self):
        out = run_cli("duality-check", "--action", "fixture:E2", "--t", "1",
                      "--g", "atom:1", "--A", "[0]")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["lhs"] == doc["rhs"] == 2.0

    def test_injected_fault_exits_one(self, noncommuting_file):
        out = run_cli("duality-check", "--action", noncommuting_file,
                      "--t", "1,1", "--g", "atom:2", "--A", "[0]")
        assert out.returncode == 1
        assert json.loads(out.stdout)["passed"] is False


class TestMaharamVerify:
    def test_odometer_passes(self):
        out = run_cli("maharam-verify", "--action", "zoo:odometer",
                      "--params", "K=3,p=0.4", "--t", "1")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["passed"] is True
        assert doc["measure_preservation"]["passed"] is True

    def test_injected_fault_exits_one(self, noncommuting_file):
        # the skew product precondition fails; the report is still written
        out = run_cli("maharam-verify", "--action", noncommuting_file)
        assert out.returncode == 1
        doc = json.loads(out.stdout)
        assert doc["passed"] is False


class TestHopf:
    def test_union_labels(self):
        out = run_cli("hopf", "--action", "fixture:MIX", "--radius", "4")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["summary"] == "mixed"

    def test_invalid_radius_is_a_usage_error(self):
        out = run_cli("hopf", "--action", "fixture:MIX", "--radius", "0")
        assert out.returncode == 2


class TestKrengel:
    def test_translation_normal_form(self):
        out = run_cli("krengel", "--action", "fixture:TR1",
                      "--region", "exhaustion:2", "--radius", "6")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["equivalence"]["passed"] is True
        assert doc["form"]["representatives"] == [{"atom": -2, "tau": 1.0}]

    def test_corrupted_form_exits_one(self, tmp_path):
        built = run_cli("krengel", "--action", "fixture:TR1",
                        "--region", "exhaustion:2", "--radius", "6")
        doc = json.loads(built.stdout)["form"]
        for entry in doc["table"]:
            if entry["t"] == [1]:
                entry["atom"] = 99
                break
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        out = run_cli("krengel", "--action", "fixture:TR1",
                      "--verify-form", str(path), "--radius", "6")
        assert out.returncode == 1
        assert json.loads(out.stdout)["equivalence"]["passed"] is False


class TestZooCommand:
    def test_list(self):
        out = run_cli("zoo", "list")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert "cyclic" in {b["builder"] for b in doc["builders"]}

    def test_unknown_subaction_is_a_usage_error(self):
        out = run_cli("zoo", "frobnicate")
        assert out.returncode == 2


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "action": "fixture:C4", "g": "atom:0", "n": "4,8"}))
        out = run_cli("stat", "--config", str(cfg))
        assert out.returncode == 0
        assert "4,corner,1.0,4,0" in out.stdout
        override = run_cli("stat", "--config", str(cfg), "--n", "8,16")
        assert override.returncode == 0
        assert "16,corner,0.25,4,0" in override.stdout
        assert "4,corner,1.0" not in override.stdout

    @pytest.mark.parametrize("command,key,value", [
        ("stat", "n", [4, 8]),
        ("stat", "g", ["atom:0"]),
        ("stat", "timing", 1),
        ("verdict", "g", "atom:0"),
        ("verdict", "theta_dec", True),
        ("hopf", "radius", "4"),
        ("hopf", "radius", 2.5),
        ("maharam-verify", "m", 1),
    ])
    def test_value_of_the_wrong_type_is_a_usage_error(
            self, tmp_path, capsys, command, key, value):
        g = ["atom:0"] if command == "verdict" else "atom:0"
        doc = {"action": "fixture:C4", "g": g, "n": "4,8", key: value}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"config key {key!r}" in err

    def test_float_option_takes_an_int(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": 1, "radius": 1}))
        assert cli.main(["cocycle-check", "--action", "fixture:E2",
                         "--config", str(cfg)]) == 0


DETERMINISM_CASES = [
    ("stat", "--action", "fixture:C4", "--g", "atom:0", "--n", "4,8,16"),
    ("verdict", "--action", "fixture:TR1", "--g", "atom:0", "--n", "4,8,16"),
    ("cocycle-check", "--action", "fixture:OD3", "--radius", "3"),
    ("duality-check", "--action", "fixture:E2", "--t", "1", "--g", "atom:1",
     "--A", "[0]"),
    ("maharam-verify", "--action", "fixture:OD3", "--t", "1",
     "--m", "1", "--n", "2,4"),
    ("hopf", "--action", "fixture:MIX", "--radius", "4"),
    ("krengel", "--action", "fixture:TR1", "--region", "exhaustion:2",
     "--radius", "6"),
    ("zoo", "list"),
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_CASES,
                             ids=[c[0] for c in DETERMINISM_CASES])
    def test_byte_identical_output(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


class TestAdditionalSurfaces:
    def test_centered_window_flag(self):
        out = run_cli("stat", "--action", "fixture:C4", "--g", "atom:0",
                      "--n", "2,4", "--window", "centered")
        assert out.returncode == 0
        assert "2,centered,0.8,4,0" in out.stdout

    def test_rects_from_file(self, tmp_path):
        rects = [{"atom": "000", "a": 0.0, "b": 1.0},
                 {"atom": "100", "a": 2.0, "b": 3.5}]
        path = tmp_path / "rects.json"
        path.write_text(json.dumps(rects))
        out = run_cli("maharam-verify", "--action", "fixture:OD3",
                      "--t", "1", "--rects", f"@{path}", "--m", "1",
                      "--n", "2,4")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert len(doc["measure_preservation"]["rects"]) == 2
        assert doc["passed"] is True

    def test_overlapping_rect_file_is_a_usage_error(self, tmp_path):
        rects = [{"atom": "000", "a": 0.0, "b": 1.0},
                 {"atom": "000", "a": 0.5, "b": 2.0}]
        path = tmp_path / "rects.json"
        path.write_text(json.dumps(rects))
        out = run_cli("maharam-verify", "--action", "fixture:OD3",
                      "--t", "1", "--rects", f"@{path}")
        assert out.returncode == 2

    def test_function_from_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"atom": 0, "value": 2.0},
                                    {"atom": 1, "value": 1.0}]))
        out = run_cli("stat", "--action", "fixture:C4", "--g", f"@{path}",
                      "--n", "4,8")
        assert out.returncode == 0
        assert out.stdout.splitlines()[1].startswith("4,corner,")

    @pytest.mark.parametrize("argv", [
        ("--action", "fixture:C4", "--params", "N=2.5"),
        ("--action", "zoo:C4"),
        ("--action", "C4"),
    ])
    def test_only_documented_action_forms(self, capsys, argv):
        assert cli.main(["stat", *argv, "--g", "atom:0", "--n", "4"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_params_with_an_action_file_is_a_usage_error(
            self, noncommuting_file, capsys):
        assert cli.main(["hopf", "--action", noncommuting_file,
                         "--params", "N=4"]) == 2
        assert "--params" in capsys.readouterr().err

    def test_weight_ratio_overflow_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"atoms": [0, 1],
                                    "weights": [1e-300, 1e300],
                                    "generators": [[1, 0]]}))
        for command in ("cocycle-check", "maharam-verify"):
            assert cli.main([command, "--action", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "overflows" in captured.err

    def test_missing_action_file_is_a_usage_error(self):
        out = run_cli("stat", "--action", "/nowhere/action.json",
                      "--g", "atom:0", "--n", "4")
        assert out.returncode == 2
