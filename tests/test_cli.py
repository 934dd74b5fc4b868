"""CLI behaviour: outputs, determinism, exit-code mapping, configuration."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.fixture(scope="module")
def equal_weight_noncommuting_file(tmp_path_factory):
    # T_0 T_1 != T_1 T_0 at every atom, but every weight ratio is 1, so only
    # the endpoint atoms of the two composition orders can tell
    doc = {"atoms": [0, 1, 2], "weights": [1, 1, 1],
           "generators": [[1, 2, 0], [1, 0, 2]]}
    path = tmp_path_factory.mktemp("cli") / "equal-weights.json"
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


    def test_noncommuting_with_equal_weights_exits_one(
            self, equal_weight_noncommuting_file):
        out = run_cli("cocycle-check", "--action",
                      equal_weight_noncommuting_file, "--radius", "3")
        assert out.returncode == 1
        doc = json.loads(out.stdout)
        assert doc["passed"] is False
        assert doc["max_rel_deviation"] == 0.0
        assert all("images" in v for v in doc["violations"])


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

    def test_a_zero_g_is_a_usage_error(self, tmp_path, capsys):
        # lhs = rhs = norm = 0 would pass having checked nothing
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert cli.main(["duality-check", "--action", "fixture:C4",
                         "--t", "1", "--g", f"@{empty}", "--A", "[0]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: duality check needs a function g "
                                "with nonempty support\n")

    def test_an_empty_A_is_a_usage_error(self, capsys):
        # lhs = rhs = 0 would pass having checked nothing
        assert cli.main(["duality-check", "--action", "fixture:C4",
                         "--t", "1", "--g", "ones", "--A", "[]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: duality check needs a nonempty "
                                "set A\n")


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


    def test_noncommuting_with_equal_weights_exits_one(
            self, equal_weight_noncommuting_file):
        out = run_cli("maharam-verify", "--action",
                      equal_weight_noncommuting_file, "--t", "1,1")
        assert out.returncode == 1
        assert json.loads(out.stdout)["passed"] is False

    def test_a_grid_keeps_its_rows_in_argument_order(self):
        code, out, err = _main("maharam-verify", "--action", "fixture:TR1",
                               "--m", "4,1,4", "--n", "2,4")
        assert (code, err) == (0, "")
        rows = [(r["m"], r["n"], r["lhs"], r["rhs"])
                for r in json.loads(out)["extension_stat"]]
        assert rows == [(4, 2, 20.0, 20.0), (4, 4, 12.0, 12.0),
                        (1, 2, 2.0, 2.0), (1, 4, 1.5, 1.5),
                        (4, 2, 20.0, 20.0), (4, 4, 12.0, 12.0)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3081abc1ff65513c0f270a37e165abd043e016d6b35c67f740a3027cf6702121")

    def test_a_budget_overdraw_at_the_largest_n_keeps_its_line(self):
        code, out, err = _main("maharam-verify", "--action", "fixture:ST2",
                               "--m", "1", "--n", "4,1001")
        assert (code, out) == (2, "")
        assert err == (
            "error: exploration budget exhausted while stepping axis 1 "
            "toward t=(999, 2), 1000001 of 1002001 window atoms reached\n")

    @pytest.mark.parametrize("spec", ["foo", "1,,2"])
    def test_a_bad_m_list_names_the_flag(self, spec):
        code, out, err = _main("maharam-verify", "--action", "fixture:TR1",
                               "--m", spec)
        _assert_usage_error(code, out, err)
        assert err == f"error: cannot parse m list {spec!r}\n"

    def test_options_are_parsed_before_the_cocycle_check(
            self, noncommuting_file):
        # the action fails the cocycle check behind extend; the usage error
        # comes first, before any check runs
        code, out, err = _main("maharam-verify", "--action", noncommuting_file,
                               "--m", "foo")
        _assert_usage_error(code, out, err)
        assert err == "error: cannot parse m list 'foo'\n"

    @pytest.mark.parametrize("spec, ms", [("0", "[0]"), ("2,0,4", "[2, 0, 4]")])
    def test_an_m_below_one_is_refused_before_extend(self, spec, ms,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "extend", lambda *args: calls.append(args))
        code, out, err = _main("maharam-verify", "--action", "fixture:C4",
                               "--m", spec)
        _assert_usage_error(code, out, err)
        assert err == f"error: exhaustion indices must be >= 1: {ms}\n"
        assert calls == []

    def test_an_m_below_one_is_a_usage_error_on_a_failing_action(
            self, noncommuting_file):
        # a usage error, not the cocycle report of exit 1
        code, out, err = _main("maharam-verify", "--action", noncommuting_file,
                               "--m", "0")
        _assert_usage_error(code, out, err)
        assert err == "error: exhaustion indices must be >= 1: [0]\n"

    def test_empty_rectangle_list_is_a_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert cli.main(["maharam-verify", "--action", "fixture:TR1",
                         "--rects", f"@{empty}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rectangle list is empty\n"

    def test_failed_report_goes_to_the_configured_out(
            self, noncommuting_file, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"action": noncommuting_file,
                                   "out": str(tmp_path / "report.json")}))
        assert cli.main(["maharam-verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out == ""
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False
        # a flag still wins over the config file
        flag = tmp_path / "flag.json"
        assert cli.main(["maharam-verify", "--config", str(cfg),
                         "--out", str(flag)]) == 1
        assert capsys.readouterr().out == ""
        assert json.loads(flag.read_text()) == report

    def test_unwritable_out_of_a_failed_report_is_a_usage_error(
            self, noncommuting_file, tmp_path, capsys):
        out = str(tmp_path / "missing" / "report.json")
        assert cli.main(["maharam-verify", "--action", noncommuting_file,
                         "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and out in captured.err


class TestHopf:
    def test_union_labels(self):
        out = run_cli("hopf", "--action", "fixture:MIX", "--radius", "4")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["summary"] == "mixed"

    def test_invalid_radius_is_a_usage_error(self):
        out = run_cli("hopf", "--action", "fixture:MIX", "--radius", "0")
        assert out.returncode == 2

    def test_mixed_atoms_are_listed_numbers_strings_tuples(self, tmp_path,
                                                           capsys):
        # ints, a str and a tuple fail the type check: atom_key orders them
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "atoms": [2, "b", [0, 1], 1], "weights": [1, 2, 4, 8],
            "generators": [["b", [0, 1], 1, 2]]}))
        assert cli.main(["hopf", "--action", str(path), "--radius", "4"]) == 0
        labels = json.loads(capsys.readouterr().out)["labels"]
        assert [x["atom"] for x in labels] == [1, 2, "b", [0, 1]]
        assert cli.main(["duality-check", "--action", str(path), "--t", "3",
                         "--g", "ones", "--A", '[1, "b", [0, 1]]']) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


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

    def test_a_sparse_form_is_a_usage_error(self, tmp_path):
        built = run_cli("krengel", "--action", "fixture:TR1",
                        "--region", "exhaustion:2", "--radius", "6")
        doc = json.loads(built.stdout)["form"]
        doc["table"] = [e for e in doc["table"] if e["t"] != [3]]
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        code, out, err = _main("krengel", "--action", "fixture:TR1",
                               "--verify-form", str(path), "--radius", "6")
        _assert_usage_error(code, out, err)
        assert err == ("error: the table of representative -2 is not exactly "
                       "centered(6): it has no entry at t=(3,)\n")

    @pytest.mark.parametrize("action,form,atoms", [
        # a conservative rotation is no translation, though every unit pair
        # of its table holds
        ("fixture:C4", {"d": 1, "radius": 2,
                        "representatives": [{"atom": 0, "tau": 0.25}],
                        "table": [{"w": 0, "t": [t], "atom": t % 4}
                                  for t in range(-2, 3)]}, [2]),
        # two representatives whose tables share the atoms 0 and 1
        ("fixture:TR1", {"d": 1, "radius": 1,
                         "representatives": [{"atom": 0, "tau": 1.0},
                                             {"atom": 1, "tau": 1.0}],
                         "table": [{"w": w, "t": [t], "atom": w + t}
                                   for w in (0, 1) for t in (-1, 0, 1)]},
         [0, 1]),
    ], ids=["C4-rotation", "TR1-shared-atoms"])
    def test_a_table_that_repeats_an_atom_exits_one(self, tmp_path, action,
                                                    form, atoms):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form))
        code, out, err = _main("krengel", "--action", action,
                               "--verify-form", str(path),
                               "--radius", str(form["radius"]))
        assert (code, err) == (1, "")
        report = json.loads(out)["equivalence"]
        assert report["passed"] is False
        assert [f["kind"] for f in report["failures"]] == (
            ["injectivity"] * len(atoms))
        assert [f["atom"] for f in report["failures"]] == atoms

    @pytest.mark.parametrize("config", [{}, {"region": "[5]"}],
                             ids=["flag", "config"])
    def test_region_and_verify_form_exclude_each_other(self, tmp_path,
                                                       config):
        # the region was ignored, and the loaded form verified with exit 0
        form = tmp_path / "form.json"
        form.write_text(json.dumps(_TR1_FORM))
        args = ("krengel", "--action", "fixture:TR1", "--verify-form",
                str(form))
        assert _main(*args)[0] == 0
        conf = tmp_path / "config.json"
        conf.write_text(json.dumps(config))
        code, out, err = _main(*args, "--config", str(conf),
                               *(() if config else ("--region", "[5]")))
        _assert_usage_error(code, out, err)
        assert "--region and --verify-form" in err

    @pytest.mark.parametrize("args,form", [
        (("--region", "[]", "--radius", "2"), None),
        (("--radius", "4"),
         {"d": 1, "radius": 4, "representatives": [], "table": []}),
        (("--radius", "4"),
         {"d": 1, "radius": 9, "representatives": [{"atom": 0, "tau": 1.0}],
          "table": [{"w": 0, "t": [9], "atom": 9}]}),
    ], ids=["empty-region", "empty-form", "entry-beyond-the-radius"])
    def test_nothing_to_verify_is_a_usage_error(self, tmp_path, args, form):
        # each of these exited 0 with "passed": true and both counts 0
        if form is not None:
            path = tmp_path / "form.json"
            path.write_text(json.dumps(form))
            args += ("--verify-form", str(path))
        code, out, err = _main("krengel", "--action", "fixture:TR1", *args)
        _assert_usage_error(code, out, err)
        assert "no table entry of the form lies within radius" in err

    @pytest.mark.parametrize("radius", ["0", "-3"])
    def test_a_radius_below_one_is_a_usage_error(self, radius):
        code, out, err = _main("krengel", "--action", "fixture:TR1",
                               "--region", "exhaustion:1", "--radius", radius)
        _assert_usage_error(code, out, err)
        assert err == "error: radius must be >= 1\n"


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

    def test_a_config_that_is_not_an_object_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(["--action", "fixture:C4"]))
        code, out, err = _main("hopf", "--config", str(cfg))
        _assert_usage_error(code, out, err)
        assert err == "error: config file must hold a JSON object\n"

    def test_a_relative_out_lands_under_the_out_dir(self, tmp_path,
                                                    monkeypatch):
        argv = ("stat", "--action", "fixture:C4", "--g", "atom:0",
                "--n", "4,8")
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        assert _main(*argv, "--out", "series.csv") == (0, "", "")
        assert (tmp_path / "series.csv").read_text() == (
            "n,window,a_n,support,ms\n4,corner,1.0,4,0\n8,corner,0.5,4,0\n")


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
        # the cocycle check takes log-weight differences, so it checks the
        # action; the skew product's ratio still overflows
        assert cli.main(["cocycle-check", "--action", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert cli.main(["maharam-verify", "--action", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: weight ratio mu(1) / mu(0) in space "
                                "'explicit' overflows a float\n")

    def test_weight_ratio_underflow_is_a_usage_error(self, tmp_path):
        # the rectangle on atom 1 goes to atom 0, and mu(0) / mu(1) = 1e-600
        # is 0.0 as a float: its fiber would be divided by zero
        path = _swap_file(tmp_path, [1e-300, 1e300])
        rects = tmp_path / "rects.json"
        rects.write_text(json.dumps([{"atom": 1, "a": 0.0, "b": 1.0}]))
        code, out, err = _main("maharam-verify", "--action", path,
                               "--rects", str(rects), "--m", "1", "--n", "2")
        _assert_usage_error(code, out, err)
        assert err == ("error: weight ratio mu(0) / mu(1) in space "
                       "'explicit' underflows a float\n")

    def test_an_overflowing_ratio_names_its_atoms(self, tmp_path):
        # every input value is finite: only the ratio 1e300 / 1e-300 is not
        path = _swap_file(tmp_path, [1e-300, 1e300])
        code, out, err = _main("duality-check", "--action", path, "--t", "1",
                               "--g", "ones", "--A", "[0, 1]")
        _assert_usage_error(code, out, err)
        assert err == ("error: weight ratio mu(1) / mu(0) in space "
                       "'explicit' overflows a float\n")

    def test_an_underflowing_ratio_names_its_atoms(self, tmp_path):
        # the dual image of 1_0 sits at atom 1 with the ratio
        # mu(0) / mu(1) = 1e-600, which is 0.0 as a float: a zero dual norm
        # would read as a failure of duality
        path = _swap_file(tmp_path, [1e-300, 1e300])
        code, out, err = _main("duality-check", "--action", path, "--t", "1",
                               "--g", "atom:0", "--A", "[0, 1]")
        _assert_usage_error(code, out, err)
        assert err == ("error: weight ratio mu(0) / mu(1) in space "
                       "'explicit' underflows a float\n")

    def test_stat_sums_a_wide_ratio_without_dividing(self, tmp_path):
        # a_n sums the window maxima of g * mu, so mu(1) / mu(0) = 1e600
        # is never formed: both atoms see the maximum 1e300 of the window
        path = _swap_file(tmp_path, [1e-300, 1e300])
        code, out, err = _main("stat", "--action", path, "--g", "ones",
                               "--n", "2")
        assert (code, err) == (0, "")
        (row,) = csv.DictReader(io.StringIO(out))
        assert float(row["a_n"]) == 1e300
        assert int(row["support"]) == 2

    def test_a_n_below_a_finite_norm_is_answered(self, tmp_path):
        # g has the finite norm 1.5e308 and a_n <= ||g||_1, but the window
        # maxima sum to 3e308: a_n is summed at a power-of-two scale
        path = _swap_file(tmp_path, [1.5e308, 1.0])
        code, out, err = _main("stat", "--action", path, "--g", "ones",
                               "--n", "2")
        assert (code, err) == (0, "")
        (row,) = csv.DictReader(io.StringIO(out))
        assert float(row["a_n"]) == 1.5e308
        code, out, err = _main("verdict", "--action", path, "--g", "ones",
                               "--n", "2,4")
        assert (code, err) == (0, "")
        (evidence,) = json.loads(out)["evidence"]
        assert (evidence["initial_n"], evidence["final_n"]) == (2, 4)
        assert (evidence["initial"], evidence["final"]) == (1.5e308, 7.5e307)

    _NORM = "the L1 norm of a function on space 'explicit'"

    @pytest.mark.parametrize("command, weights, g, what", [
        ("duality-check", [1e300, 1e300], "1e10", _NORM),
        ("stat", [1e300, 1e300], "1e10", _NORM),
        ("verdict", [1e300, 1e300], "1e10", _NORM),
        ("stat", [1e308, 1e308], "ones", _NORM),
        ("duality-check", [1e308, 1e308], "ones", _NORM),
        # the window maxima sum to 3e308 here too; as a_n <= ||g||_1, they
        # leave float range only with the norm, which refuses first
        ("stat", [1.5e308, 1.5e308], "ones", _NORM),
        ("verdict", [1.5e308, 1.5e308], "ones", _NORM),
    ], ids=["g-times-mu-duality-check", "g-times-mu-stat",
            "g-times-mu-verdict", "norm-stat", "norm-duality-check",
            "window-sum-stat", "window-sum-verdict"])
    def test_mass_beyond_float_range_is_a_usage_error(
            self, tmp_path, command, weights, g, what):
        # a sum that leaves float range fails closed: it is never printed
        # as Infinity and never ends in a traceback
        path = _swap_file(tmp_path, weights)
        if g == "1e10":
            g = tmp_path / "g.json"
            g.write_text(json.dumps([{"atom": 0, "value": 1e10}]))
            g = f"@{g}"
        rest = {"stat": ("--n", "2"), "verdict": ("--n", "2,4"),
                "duality-check": ("--t", "1", "--A", "[0, 1]")}[command]
        code, out, err = _main(command, "--action", path, "--g", g, *rest)
        _assert_usage_error(code, out, err)
        assert err == f"error: {what} overflows a float\n"

    def test_missing_action_file_is_a_usage_error(self):
        out = run_cli("stat", "--action", "/nowhere/action.json",
                      "--g", "atom:0", "--n", "4")
        assert out.returncode == 2


def _swap_file(tmp_path, weights):
    """An action file: the swap of atoms 0 and 1 with the given weights."""
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"atoms": [0, 1], "weights": weights,
                                "generators": [[1, 0]]}))
    return str(path)


def _captured(run, *args):
    """``run(*args)`` in process: (exit code, stdout, stderr), with
    argparse's own exit taken as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(*args)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _main(*argv):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    return _captured(cli.main, list(argv))


# a radius-2 Krengel form of TR1 that verifies
_TR1_FORM = {"representatives": [{"atom": 0, "tau": 1.0}],
             "table": [{"w": 0, "t": [t], "atom": t} for t in range(-2, 3)],
             "d": 1, "radius": 2}


def _with_t1(x):
    """The full TR1 form with its t = [1] entry written as [x]."""
    return _TR1_FORM | {"table": [e if e["t"] != [1] else {**e, "t": [x]}
                                  for e in _TR1_FORM["table"]]}


def _assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestMalformedInput:
    @pytest.mark.parametrize("doc", [
        {"atoms": [0, 1], "weights": [1.0, 1.0], "generators": 5},
        {"atoms": [0, 1], "weights": [1.0, None], "generators": [[1, 0]]},
        {"atoms": [0, 1], "weights": [1.0, 1.0], "generators": [5]},
        {"builder": "cyclic", "params": [1]},
        {"builder": ["cyclic"]},
        {"builder": "translation", "params": {"tau": []}},
        {"builder": "disjoint_union", "params": {"parts": [
            {"builder": "translation", "params": {"d": 1}},
            {"builder": "translation", "params": {"d": 2}}]}},
        {"atoms": [0, 1], "weights": [1.0, 1.0], "generators": []},
    ], ids=["generators-number", "weight-null", "generator-number",
            "params-array", "builder-array", "tau-empty", "union-mixed-d",
            "no-generators"])
    def test_action_document_of_the_wrong_shape(self, tmp_path, doc):
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        _assert_usage_error(*_main("hopf", "--action", str(path)))

    @pytest.mark.parametrize("tau, entry", [
        (["x"], "tau[0]='x'"),
        ([[1]], "tau[0]=[1]"),
        ({"a": 1.0, "b": -2}, "tau['b']=-2"),
    ], ids=["word", "list", "negative"])
    def test_a_bad_tau_weight_is_refused_by_name(self, tmp_path, tau, entry):
        # float() would answer a word or a list with its own text, which
        # differs between Python versions
        path = tmp_path / "action.json"
        path.write_text(json.dumps({"builder": "translation",
                                    "params": {"tau": tau}}))
        code, out, err = _main("hopf", "--action", str(path))
        _assert_usage_error(code, out, err)
        assert err == ("error: tau weights must be positive finite numbers: "
                       f"{entry}\n")

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"representatives": [1], "table": [], "d": 1, "radius": 2},
        {"representatives": [], "table": [{"w": 0, "t": 3, "atom": 0}],
         "d": 1, "radius": 2},
        {"representatives": [], "table": [], "d": None, "radius": 2},
        # int() would truncate these to a form that verifies and exits 0
        _with_t1(1.7),
        _with_t1(True),
        _TR1_FORM | {"d": 1.0},
        _TR1_FORM | {"radius": 2.5},
        # a table that does not match the rest of its document
        {"d": 1, "radius": 2, "representatives": [{"atom": 5, "tau": 1.0}],
         "table": [{"w": 0, "t": [0], "atom": 0},
                   {"w": 0, "t": [1], "atom": 1}]},
        _TR1_FORM | {"table": _TR1_FORM["table"]
                     + [{"w": 0, "t": [5, 7], "atom": 99}]},
        _TR1_FORM | {"table": _TR1_FORM["table"]
                     + [{"w": 0, "t": [1], "atom": 2}]},
        # an entry no window of the form reaches would pass unchecked
        _TR1_FORM | {"table": _TR1_FORM["table"]
                     + [{"w": 0, "t": [50], "atom": 12345}]},
        # no window, or another lattice than the action's
        _TR1_FORM | {"radius": 0},
        _TR1_FORM | {"radius": -1},
        _TR1_FORM | {"d": 0},
        _TR1_FORM | {"d": 2, "table": [{"w": 0, "t": [1, 0], "atom": 1}]},
    ], ids=["array", "representative-number", "t-number", "d-null",
            "t-float", "t-bool", "d-float", "radius-float",
            "w-not-a-representative", "t-length", "t-repeated",
            "t-beyond-radius", "radius-0", "radius-negative", "d-0",
            "d-of-another-action"])
    def test_krengel_form_of_the_wrong_shape(self, tmp_path, doc):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        _assert_usage_error(*_main("krengel", "--action", "fixture:TR1",
                                   "--verify-form", str(path)))

    @pytest.mark.parametrize("edit,message", [
        ({"radius": 0}, "radius must be >= 1, got 0"),
        ({"radius": -1}, "radius must be >= 1, got -1"),
        ({"d": 0}, "d must be >= 1, got 0"),
        ({"d": 2, "table": [{"w": 0, "t": [1, 0], "atom": 1}]},
         "the form has dimension d=2, the action d=1"),
        ({"table": _with_t1(1.7)["table"]},
         "t entry must be an integer, got 1.7"),
        ({"table": _with_t1(True)["table"]},
         "t entry must be an integer, got True"),
    ], ids=["radius-0", "radius-negative", "d-0", "d-of-another-action",
            "t-float", "t-bool"])
    def test_krengel_form_shape_error_names_the_field(self, tmp_path, edit,
                                                      message):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(_TR1_FORM | edit))
        code, out, err = _main("krengel", "--action", "fixture:TR1",
                               "--verify-form", str(path))
        _assert_usage_error(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["\x1e", "\n", "\u2028"],
                             ids=["record-separator", "newline",
                                  "line-separator"])
    def test_line_break_in_a_param_name_stays_on_one_line(self, tmp_path,
                                                          key):
        # the parameter check names the key with repr; str.splitlines
        # breaks on each of these characters
        path = tmp_path / "action.json"
        path.write_text(json.dumps({"builder": "cyclic",
                                    "params": {key: None}}))
        code, out, err = _main("hopf", "--action", str(path))
        _assert_usage_error(code, out, err)
        assert len(err.splitlines()) == 1
        assert repr(key)[1:-1] in err

    @pytest.mark.parametrize("doc,fault", [
        ({"builder": "cyclic", "params": {"x": 1}},
         "unknown parameter 'x'; it accepts 'N', 'weights', 'name'"),
        ({"builder": "odometer"},
         "missing parameter 'K'; it accepts 'K', 'p', 'd', 'name'"),
        ({"builder": "odometer", "params": {"K": 3}},
         "missing parameter 'p'; it accepts 'K', 'p', 'd', 'name'"),
    ], ids=["unknown", "none", "one-missing"])
    def test_builder_parameter_error_names_the_key(self, tmp_path, doc,
                                                   fault):
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = _main("hopf", "--action", str(path))
        _assert_usage_error(code, out, err)
        assert err == (f"error: bad parameters for builder "
                       f"{doc['builder']!r}: {fault}\n")

    @pytest.mark.parametrize("part,fault", [
        ({"builder": "cyclic", "params": {"N": 2}, "x": 1},
         "part 1 has unknown key 'x'"),
        ({"builder": "cyclic", "params": {"N": 2}, "\n": 1},
         "part 1 has unknown key '\\n'"),
        ({"params": {"N": 2}}, "part 1 is missing key 'builder'"),
        ({"builder": "cyclic", "params": [2]},
         "part 1 has key 'params' = [2], not an object"),
        (5, "part 1 is 5, not an object"),
    ], ids=["unknown", "line-break", "no-builder", "params-array", "number"])
    def test_union_part_error_names_the_index_and_key(self, tmp_path, part,
                                                      fault):
        path = tmp_path / "action.json"
        path.write_text(json.dumps({"builder": "disjoint_union", "params": {
            "parts": [{"builder": "cyclic", "params": {"N": 2}}, part]}}))
        code, out, err = _main("hopf", "--action", str(path))
        _assert_usage_error(code, out, err)
        assert err == ("error: bad parameters for builder 'disjoint_union': "
                       f"{fault}; a part accepts 'builder', 'params'\n")

    @pytest.mark.parametrize("parts", [5, [{"builder": "cyclic"}]],
                             ids=["number", "one-part"])
    def test_union_parts_must_be_a_list_of_two(self, tmp_path, parts):
        path = tmp_path / "action.json"
        path.write_text(json.dumps({"builder": "disjoint_union",
                                    "params": {"parts": parts}}))
        code, out, err = _main("hopf", "--action", str(path))
        _assert_usage_error(code, out, err)
        assert err == ("error: disjoint_union takes a list of exactly two "
                       f"parts, got {parts!r}\n")

    def test_builder_parameter_flag_error_names_the_key(self):
        code, out, err = _main("hopf", "--action", "zoo:odometer",
                               "--params", "K=3,q=1")
        _assert_usage_error(code, out, err)
        assert "unknown parameter 'q'; it accepts 'K', 'p', 'd', 'name'" in err

    @pytest.mark.parametrize("flag, spec, argv", [
        ("--region", "exhaustion:x", ("krengel", "--action", "fixture:TR1")),
        ("--region", "exhaustion:-1", ("krengel", "--action", "fixture:TR1")),
        ("--g", "exhaustion:1.5", ("stat", "--action", "fixture:TR1",
                                   "--n", "4")),
        ("--g", "exhaustion:-1", ("stat", "--action", "fixture:TR1",
                                  "--n", "4")),
        ("--A", "exhaustion:", ("duality-check", "--action", "fixture:TR1",
                                "--t", "1", "--g", "exhaustion:2")),
    ], ids=["region", "region-negative", "g", "g-negative", "A"])
    def test_a_bad_exhaustion_index_names_the_flag(self, flag, spec, argv):
        code, out, err = _main(*argv, flag, spec)
        _assert_usage_error(code, out, err)
        assert (f"error: {flag} {spec!r}: exhaustion:<m> takes an int m >= 0"
                in err)

    def test_an_unknown_g_spec_names_the_forms(self):
        code, out, err = _main("stat", "--action", "fixture:TR1",
                               "--g", "all", "--n", "4")
        _assert_usage_error(code, out, err)
        assert err == ("error: cannot parse function spec 'all'; use "
                       "atom:<id>, ones, exhaustion:<m>, or @file.json\n")

    def test_ones_on_a_lazy_space_names_the_finite_form(self):
        code, out, err = _main("stat", "--action", "fixture:TR1",
                               "--g", "ones", "--n", "4")
        _assert_usage_error(code, out, err)
        assert err == ("error: 'ones' needs a finite space; use "
                       "exhaustion:<m> instead\n")

    @pytest.mark.parametrize("builder, params, message", [
        ("translation", "d=true", "dimension must be a positive int: True"),
        ("translation", "d=FALSE", "dimension must be a positive int: False"),
        # an x list with a part that is not an int stays one string, which
        # the builder refuses by the parameter's name
        ("translation", "tau=1x0.5", "tau must be a list of weights or a "
         "mapping of labels to weights: tau='1x0.5'"),
        ("translation", "tau=1x0", "tau weights must be positive finite "
         "numbers: tau[1]=0"),
        ("translation", "d", "parameter 'd' is not of the form key=value"),
        ("translation", "d=2,tau",
         "parameter 'tau' is not of the form key=value"),
        ("cyclic", "N=2x3.5",
         "cyclic N must be a positive int or a list of them: N='2x3.5'"),
        ("cyclic", "N=true",
         "cyclic N must be a positive int or a list of them: N=True"),
        ("odometer", "K=0,p=0.4",
         "odometer depth K must be a positive int: 0"),
        ("odometer", "K=2,p=0.4,d=0", "dimension must be a positive int: 0"),
        ("odometer", "K=2,p=1x2",
         "odometer p must be a number with 0 < p < 1: p=[1, 2]"),
        ("odometer", "K=2,p=abc",
         "odometer p must be a number with 0 < p < 1: p='abc'"),
        ("odometer", "K=2,p=true",
         "odometer p must be a number with 0 < p < 1: p=True"),
        ("odometer", "K=2,p=1.5",
         "odometer p must be a number with 0 < p < 1: p=1.5"),
        ("odometer", "K=2,p=nan",
         "odometer p must be a number with 0 < p < 1: p=nan"),
        ("stabilizer", "d=0", "dimension must be a positive int: 0"),
        ("stabilizer", "d=2,active=5",
         "active axes (5,) must be indices below d=2"),
    ], ids=["true", "false", "x-list", "tau-zero", "no-equals",
            "no-equals-second", "cyclic-x-list", "cyclic-true", "odometer-K0", "odometer-d0",
            "odometer-p-list", "odometer-p-word", "odometer-p-true",
            "odometer-p-above-one", "odometer-p-nan", "stabilizer-d0",
            "stabilizer-active"])
    def test_params_are_typed_before_the_builder_sees_them(self, builder,
                                                           params, message):
        code, out, err = _main("hopf", "--action", f"zoo:{builder}",
                               "--params", params)
        _assert_usage_error(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, spec, argv", [
        ("--region", "foo", ("krengel", "--action", "fixture:TR1")),
        ("--A", "[1,", ("duality-check", "--action", "fixture:TR1",
                        "--t", "1", "--g", "exhaustion:2")),
        ("--A", "{}", ("duality-check", "--action", "fixture:TR1",
                       "--t", "1", "--g", "exhaustion:2")),
    ], ids=["region-word", "A-unclosed", "A-object"])
    def test_a_bad_atom_list_names_the_flag(self, flag, spec, argv):
        code, out, err = _main(*argv, flag, spec)
        _assert_usage_error(code, out, err)
        assert err == f"error: {flag} {spec!r}: not a JSON array of atoms\n"

    @pytest.mark.parametrize("argv", [
        ("stat", "--action", "fixture:C4", "--g", "atom:{}", "--n", "4"),
        ("stat", "--action", "fixture:MIX", "--g", 'atom:[0, {"a": 1}]',
         "--n", "4"),
        ("duality-check", "--action", "fixture:C4", "--t", "1",
         "--g", "atom:0", "--A", "[{}]"),
        ("krengel", "--action", "fixture:TR1", "--region", "[{}]"),
    ], ids=["g", "g-nested", "A", "region"])
    def test_json_object_is_not_an_atom(self, argv):
        _assert_usage_error(*_main(*argv))

    @pytest.mark.parametrize("doc", [[1, 2], {"atom": 0, "value": 1.0},
                                     [{"atom": 0, "value": [1]}]],
                             ids=["numbers", "object", "value-array"])
    def test_function_file_of_the_wrong_shape(self, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        _assert_usage_error(*_main("stat", "--action", "fixture:C4",
                                   "--g", f"@{path}", "--n", "4"))

    @pytest.mark.parametrize("doc", [[1, 2], [{"atom": 0, "a": None,
                                               "b": 1.0}]],
                             ids=["numbers", "bound-null"])
    def test_rectangle_file_of_the_wrong_shape(self, tmp_path, doc):
        path = tmp_path / "rects.json"
        path.write_text(json.dumps(doc))
        _assert_usage_error(*_main("maharam-verify", "--action", "fixture:C4",
                                   "--rects", str(path)))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_tolerance_flag_must_be_finite(self, value):
        _assert_usage_error(*_main("cocycle-check", "--action", "fixture:C4",
                                   f"--tol={value}"))

    @pytest.mark.parametrize("key,value", [("tol", float("nan")),
                                           ("tol", float("inf")),
                                           ("theta_dec", float("nan"))])
    def test_tolerance_config_value_must_be_finite(self, tmp_path, key, value):
        command = "verdict" if key == "theta_dec" else "cocycle-check"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value, "g": ["atom:0"], "n": "4,8"}))
        _assert_usage_error(*_main(command, "--action", "fixture:C4",
                                   "--config", str(cfg)))

    @pytest.mark.parametrize("params", ["K=40,p=0.3", "K=10,p=0.3,d=2",
                                        "N=1000000000", "N=1000x1001"])
    def test_builder_refuses_more_atoms_than_the_budget(self, params):
        builder = "odometer" if params.startswith("K") else "cyclic"
        start = time.perf_counter()
        code, out, err = _main("hopf", "--action", f"zoo:{builder}",
                               "--params", params)
        assert time.perf_counter() - start < 5.0
        _assert_usage_error(code, out, err)
        assert "more than the limit 1000000" in err

    @pytest.mark.parametrize("params", ["d=12", "tau=1x2,d=9"])
    def test_lazy_exhaustion_refuses_more_atoms_than_the_budget(self, params):
        start = time.perf_counter()
        code, out, err = _main("hopf", "--action", "zoo:translation",
                               "--params", params, "--radius", "1")
        assert time.perf_counter() - start < 5.0
        _assert_usage_error(code, out, err)
        assert "more than 1000000 atoms" in err

    def test_krengel_region_outside_its_representative_window(self):
        # 10 reaches the representative 0 only through 5, so it becomes a
        # representative itself, and its window meets 0's at 5
        code, out, err = _main("krengel", "--action", "fixture:TR1",
                               "--region", "[0,5,10]", "--radius", "5")
        _assert_usage_error(code, out, err)
        assert ("patches overlap: atom 5 is reached from 0 at t=(5,) and "
                "from 10 at t=(-5,)") in err and "increase the radius" in err

    def test_krengel_region_chained_between_disjoint_windows(self):
        # (1, 1) lies in the window of (0, 0) and (1, 2) in that of (0, 3);
        # the two windows are disjoint, but (1, 1) and (1, 2) are neighbours
        code, out, err = _main("krengel", "--action", "zoo:translation",
                               "--params", "d=2", "--region",
                               "[[0,0],[0,3],[1,1],[1,2]]", "--radius", "1")
        _assert_usage_error(code, out, err)
        assert ("region atoms (1, 1) and (1, 2) lie within radius 1"
                in err) and "increase the radius" in err

    def test_window_walk_budget_names_how_far_it_got(self):
        # the doubled window centered(800000) walks 800000 steps down to
        # t = -800000, then 200000 up before the 10^6-step budget runs out
        code, out, err = _main("cocycle-check", "--action", "fixture:TR1",
                               "--radius", "400000")
        _assert_usage_error(code, out, err)
        assert err == (
            "error: exploration budget exhausted while stepping axis 0 "
            "toward t=(-599999,), 200001 of 1600001 window atoms reached\n")

    def test_cocycle_pairs_beyond_the_budget_are_checked(self):
        # (2r+1)^(2d) pairs per sample atom need not fit in the budget:
        # only the walk and the unit pairs take steps
        code, out, err = _main("cocycle-check", "--action", "fixture:TR1",
                               "--radius", "500")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["passed"] is True and doc["checked"] == 5 * 1001 ** 2

    def test_unit_pair_budget_names_the_pair(self):
        # the walk of centered(300) fits the budget; stepping its unit
        # pairs takes 3 steps per atom, about 1.08e6, and does not
        code, out, err = _main("cocycle-check", "--action", "zoo:translation",
                               "--params", "d=2", "--radius", "150")
        _assert_usage_error(code, out, err)
        assert err == (
            "error: exploration budget exhausted while stepping axis 1 "
            "checking the unit pair at t=(164, 100), after all 361201 "
            "window atoms were reached\n")

    def test_a_tolerance_below_the_rounding_bound_is_refused(self):
        # M is that of OD3's lightest atom, of weight 0.4^3: 3 log 2.5
        code, out, err = _main("cocycle-check", "--action", "fixture:OD3",
                               "--radius", "4", "--tol", "1e-20")
        _assert_usage_error(code, out, err)
        assert err == (
            "error: tolerance 1e-20 is below the rounding bound 6.66e-15 = "
            "8 (M + 1) epsilon, where M = 2.74887 is the largest |log mu| "
            "walked\n")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)

_PARAM_KEYS = ("N", "K", "p", "d", "tau", "weights", "active", "parts",
               "name", "x")

_ACTION_DOCS = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {}, optional={"atoms": _JSON, "weights": _JSON, "generators": _JSON,
                      "name": _JSON}),
    st.fixed_dictionaries(
        {"builder": st.sampled_from(
            ["cyclic", "odometer", "translation", "stabilizer",
             "disjoint_union", "nope"]) | _JSON},
        optional={"params": st.dictionaries(
            st.sampled_from(_PARAM_KEYS), _JSON, max_size=4) | _JSON}),
)


# small grammars for flag values: ints around 0, comma lists, JSON
# fragments, non-finite floats; sizes stay at radius <= 6, n <= 64 and
# exhaustion <= 8, so every example runs well under a second
_SCALARS = st.integers(-2, 4).map(str) | st.sampled_from(
    ["nan", "inf", "-inf", "", "x", "0.5", "1e-9", "[]", "{}", "null"])
_NS = st.lists(st.integers(-1, 64), min_size=1, max_size=3).map(
    lambda ns: ",".join(map(str, ns)))
_LISTS = st.lists(st.integers(-2, 8), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs)))
_FRAGMENTS = _JSON.map(json.dumps)
_VALUES = _SCALARS | _LISTS | _FRAGMENTS
_FUNCTIONS = (st.sampled_from(["ones", "atom:0", "atom:[1, 0]", "atom:",
                               "@nowhere.json", "zeros"])
              | st.integers(-1, 8).map("exhaustion:{}".format)
              | _FRAGMENTS.map("atom:{}".format))
_ATOM_SETS = (st.integers(-1, 8).map("exhaustion:{}".format) | _FRAGMENTS
              | st.lists(st.integers(-3, 3), max_size=4).map(json.dumps))
_ACTIONS = st.sampled_from([
    ("fixture:E2",), ("fixture:C4",), ("fixture:TR1",), ("fixture:ST2",),
    ("fixture:OD3",), ("fixture:MIX",), ("fixture:NOPE",),
    ("zoo:cyclic", "--params", "N=3"), ("zoo:cyclic", "--params", "N=2x2"),
    ("zoo:odometer", "--params", "K=2,p=0.4,d=2"),
    ("zoo:translation", "--params", "d=2"),
    ("zoo:translation", "--params", "tau=1x2"),
    ("zoo:stabilizer", "--params", "d=2,active=1"),
    ("zoo:cyclic", "--params", "N=0"), ("zoo:nope",), ("nowhere.json",),
])
_RADII = st.integers(1, 6).map(str) | _SCALARS
_TOLS = st.sampled_from(["1e-9", "1e-12", "0.5", "2"]) | _VALUES
_INCREASING = st.lists(st.integers(1, 64), min_size=1, max_size=3,
                       unique=True).map(lambda ns: ",".join(map(str, sorted(ns))))

# per subcommand: flag -> value grammar (omitted flags take their defaults)
_FLAGS = {
    "stat": {"--g": _FUNCTIONS, "--n": _INCREASING | _NS | _VALUES,
             "--window": st.sampled_from(["corner", "centered", "ring"])},
    "verdict": {"--g": _FUNCTIONS, "--n": _INCREASING | _NS | _VALUES,
                "--window": st.sampled_from(["corner", "centered"]),
                "--theta-dec": _TOLS, "--theta-stab": _TOLS},
    "cocycle-check": {"--radius": st.integers(-1, 3).map(str) | _SCALARS,
                      "--tol": _TOLS},
    "duality-check": {"--t": _LISTS | _VALUES, "--g": _FUNCTIONS,
                      "--A": _ATOM_SETS, "--tol": _TOLS},
    "maharam-verify": {"--t": _LISTS | _VALUES,
                       "--rects": st.sampled_from(["auto", "@nowhere.json"]),
                       "--m": st.lists(st.integers(-1, 8), min_size=1,
                                       max_size=2).map(
                           lambda xs: ",".join(map(str, xs))) | _VALUES,
                       "--n": _INCREASING.filter(lambda t: max(
                           map(int, t.split(","))) <= 16) | _VALUES,
                       "--tol-measure": _TOLS, "--tol-extension": _TOLS},
    "hopf": {"--radius": _RADII},
    "krengel": {"--region": _ATOM_SETS, "--radius": _RADII,
                "--verify-form": st.sampled_from(["nowhere.json"])},
    "zoo": {},
}


@st.composite
def _command_lines(draw):
    """``(subcommand, action args, flags)`` with a random subset of the
    subcommand's flags."""
    command = draw(st.sampled_from(sorted(_FLAGS)), label="command")
    action = ["--action", *draw(_ACTIONS, label="action")]
    every = draw(st.booleans(), label="every flag given")
    argv = [f"{flag}={draw(values, label=flag)}"
            for flag, values in sorted(_FLAGS[command].items())
            if every or draw(st.booleans(), label=f"{flag} given")]
    if command == "stat" and draw(st.booleans(), label="--timing"):
        argv.append("--timing")
    return command, action, argv


def _subparsers(parser):
    """``parser``'s subcommand parsers by name."""
    return next(a for a in parser._actions if a.dest == "command").choices


def _config_keys(command):
    """The option keys a config file may set for ``command``, but --out,
    whose random path would be written to."""
    options = _subparsers(cli.build_parser())[command]._actions
    return sorted(a.dest for a in options
                  if a.dest not in ("help", "config", "out"))


class TestFuzzedDocuments:
    """Every document, atom literal, command line or config file ends in
    exit 0, 1 or 2, never a traceback, and exit 2 writes exactly one
    ``error:`` line."""

    @staticmethod
    def check(*argv):
        code, out, err = _main(*argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            lines = err.splitlines()
            assert [line for line in lines if "error:" in line] == lines[-1:]
            if not err.startswith("usage:"):  # argparse prints usage first
                _assert_usage_error(code, out, err)

    @settings(max_examples=120, deadline=None)
    @given(_ACTION_DOCS)
    def test_action_document(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "action.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.check("hopf", "--action", path, "--radius", "1")

    @settings(max_examples=120, deadline=None)
    @given(_JSON.map(json.dumps) | st.text(max_size=6))
    def test_atom_literal(self, literal):
        self.check("stat", "--action", "fixture:MIX", "--g",
                   f"atom:{literal}", "--n", "2")
        self.check("duality-check", "--action", "fixture:MIX", "--t", "1",
                   "--g", "atom:[0, 1]", "--A", f"[{literal}]")
        self.check("krengel", "--action", "fixture:TR1", "--region",
                   f"[{literal}]", "--radius", "2")

    @settings(max_examples=300, deadline=None)
    @given(_command_lines())
    def test_command_line(self, parts):
        command, action, flags = parts
        self.check(command, *action, *flags)

    @settings(max_examples=150, deadline=None)
    @given(parts=_command_lines(), data=st.data())
    def test_config_file(self, parts, data):
        # values are any small JSON; the flags drawn alongside still win
        # over the file, and the action may come from the file alone
        command, action, flags = parts
        config = data.draw(st.dictionaries(
            st.sampled_from(_config_keys(command)),
            _JSON | _VALUES | st.lists(_FUNCTIONS, max_size=2),
            max_size=4), label="config")
        if data.draw(st.booleans(), label="action from the file"):
            action = []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            self.check(command, *action, *flags, "--config", path)


_C4_HOPF = ["hopf", "--action", "fixture:C4", "--radius", "1"]


def _refused_lines():
    """Command lines argparse answers itself: the top-level help, no
    command, an unknown command, a command after the top-level help or
    after ``--``, a stray positional, and per subcommand its help, an
    unknown flag and a bad value for each option with a type or choices."""
    lines = [["--help"], [], ["bogus"], ["-h", "hopf"], ["--", *_C4_HOPF],
             [*_C4_HOPF, "extra"]]
    for name, sub in _subparsers(cli.build_parser()).items():
        lines += [[name, "--help"], [name, "--no-such-flag"]]
        lines += [[name, a.option_strings[0], "x"] for a in sub._actions
                  if a.type or a.choices]
    return lines


# one cheap command line per subcommand, each of which exits 0
_CALLS = {
    "stat": ["--action", "fixture:C4", "--g", "ones", "--n", "2"],
    "verdict": ["--action", "fixture:C4", "--g", "ones", "--n", "2"],
    "cocycle-check": ["--action", "fixture:C4", "--radius", "1"],
    "duality-check": ["--action", "fixture:C4", "--t", "1", "--g", "ones",
                      "--A", "[0]"],
    "maharam-verify": ["--action", "fixture:C4", "--m", "1", "--n", "2"],
    "hopf": ["--action", "fixture:TR1", "--radius", "4"],
    "krengel": ["--action", "fixture:TR1", "--region", "[0]",
                "--radius", "2"],
    "zoo": ["list"],
}

# every command as the top-level usage line lists them
_COMMAND_LIST = ("{stat,verdict,cocycle-check,duality-check,maharam-verify,"
                 "hopf,krengel,zoo}")


def _kept_parsers(monkeypatch):
    """A list that gains each parser ``cli.build_parser`` returns."""
    parsers, build = [], cli.build_parser

    def kept(argv=None):
        parsers.append(build(argv))
        return parsers[-1]

    monkeypatch.setattr(cli, "build_parser", kept)
    return parsers


def _counted_parsers(monkeypatch):
    """A list that gains one entry per ``ArgumentParser`` constructed."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestParserBuild:
    """A call that names a command builds that subcommand alone; any other
    builds every subcommand, and ``main`` answers every command line as
    the parser of all subcommands does."""

    @pytest.mark.parametrize("argv", _refused_lines(),
                             ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_answers_as_the_full_parser(self, argv, monkeypatch):
        answers = {}
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            # argparse's own formatter reads the width for itself
            full = cli.build_parser()
            for parser in (full, *_subparsers(full).values()):
                parser.formatter_class = argparse.HelpFormatter
            full = _captured(full.parse_args, argv)
            assert _main(*argv) == full
            assert full[0] in (0, 2) and full[1] + full[2]
            answers[columns] = full
        if "--help" in argv:  # the help is wrapped at each call's width
            assert answers["60"] != answers["200"]

    @pytest.mark.parametrize("columns", ["60", "200"])
    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([*_C4_HOPF, "--no-such-flag"],
         "unrecognized arguments: --no-such-flag"),
        ([*_C4_HOPF, "extra"], "unrecognized arguments: extra"),
    ], ids=["none", "bogus", "unknown-flag", "stray-positional"])
    def test_the_top_level_refusals_list_every_command(self, argv, message,
                                                       columns, monkeypatch):
        # argparse's wrapping and choice lists vary by Python release; the
        # command list and the error line are what the parser build decides
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = _main(*argv)
        assert (code, out) == (2, "") and err.startswith("usage: nsdyn [-h]")
        assert _COMMAND_LIST in err
        assert err.endswith("\n") and err.splitlines()[-1].startswith(
            f"nsdyn: error: {message}")

    def test_one_call_reads_the_width_once_and_builds_one_command(
            self, monkeypatch):
        widths, read_width = [], shutil.get_terminal_size

        def counted_width(*args):
            widths.append(args)
            return read_width(*args)

        monkeypatch.setattr(shutil, "get_terminal_size", counted_width)
        parsers = _kept_parsers(monkeypatch)
        code, out, err = _main("hopf", *_CALLS["hopf"])
        assert (code, err) == (0, "") and json.loads(out)["summary"]
        assert len(widths) == 1
        (parser,) = parsers
        assert {name: [a.dest for a in sub._actions]
                for name, sub in _subparsers(parser).items()} == {
            "hopf": ["help", "action", "params", "config", "out", "radius"]}

    @pytest.mark.parametrize("name", list(_CALLS))
    def test_a_call_that_names_a_command_builds_it_alone(self, name,
                                                         monkeypatch):
        full = _subparsers(cli.build_parser())[name]
        parsers = _kept_parsers(monkeypatch)
        built = _counted_parsers(monkeypatch)
        code, out, err = _main(name, *_CALLS[name])
        assert (code, err) == (0, "") and out
        assert len(built) == 2
        (parser,) = parsers
        assert {n: [a.dest for a in sub._actions]
                for n, sub in _subparsers(parser).items()} == {
            name: [a.dest for a in full._actions]}

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"],
                                      ["--", *_C4_HOPF]],
                             ids=["none", "-h", "bogus", "--"])
    def test_a_call_that_names_no_command_builds_every_one(self, argv,
                                                           monkeypatch):
        built = _counted_parsers(monkeypatch)
        code, _, _ = _main(*argv)
        assert code in (0, 2) and len(built) == 1 + len(cli._COMMANDS) == 9

    def test_no_argv_parses_sys_argv(self, monkeypatch):
        argv = ["hopf", "--action", "fixture:TR1", "--radius", "3"]
        expected = _main(*argv)
        assert expected[0] == 0 and expected[1]
        monkeypatch.setattr(sys, "argv", ["nsdyn", *argv])
        assert _captured(cli.main) == expected
        assert _captured(cli.main, tuple(argv)) == expected
        monkeypatch.setattr(sys, "argv", ["nsdyn", "bogus"])
        assert _captured(cli.main) == _main("bogus")
