"""End-to-end runs of every CLI verb, including exit-code contracts."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iotrisk import temporal
from iotrisk.bundled import load_bundled_model, parse_roadmap_document
from iotrisk.cli import main
from iotrisk.documents import ModelDocument, serialize_model
from iotrisk.graph import ancestors
from iotrisk.inference import ORACLE_TOL
from iotrisk.model import BayesianModel
from iotrisk.reporting import input_digest

from conftest import run_capped, wide_model

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.usefixtures("model_files")


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for name in ("layered_iot", "smart_home", "uncontrolled_sensor"):
        path = root / f"{name}.json"
        path.write_text(serialize_model(load_bundled_model(name)), encoding="utf-8")
        paths[name] = str(path)
    paths["evidence"] = str(root / "evidence.ndjson")
    Path(paths["evidence"]).write_text(
        '{"ts": 0, "node": "monitoring_app", "state": "stale"}\n'
        '{"ts": 1000, "node": "monitoring_app", "state": "stale"}\n',
        encoding="utf-8")
    paths["current"] = str(root / "current.json")
    Path(paths["current"]).write_text(json.dumps({
        "ta-g1-o1-e1": "NotImplemented",
        "ta-g2-o1-e1": "Understood",
        "ta-g3-o1-e1": "Implemented"}), encoding="utf-8")
    paths["target"] = str(root / "target.json")
    Path(paths["target"]).write_text(json.dumps({
        "ta-g1-o1-e1": "Evidenced",
        "ta-g2-o1-e1": "Understood",
        "ta-g3-o1-e1": "Evidenced"}), encoding="utf-8")
    paths["roadmap"] = str(Path(__file__).resolve().parents[1]
                           / "src" / "iotrisk" / "data" / "transformation_roadmap.json")
    return paths


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_valid_model_exits_zero(self, capsys, model_files):
        code, out = run(capsys, "validate", "--model", model_files["layered_iot"])
        assert code == 0
        assert json.loads(out)["result"]["ok"] is True

    def test_invalid_model_exits_one_with_issues(self, capsys, tmp_path, model_files):
        raw = json.loads(Path(model_files["layered_iot"]).read_text())
        raw["cpts"]["a14"]["rows"][0]["p"] = [0.9, 0.09]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        code, out = run(capsys, "validate", "--model", str(bad))
        assert code == 1
        result = json.loads(out)["result"]
        assert result["ok"] is False
        assert any("a14" in issue["path"] for issue in result["issues"])

    def test_flag_that_is_not_a_boolean_exits_one(self, capsys, tmp_path, model_files):
        raw = json.loads(Path(model_files["layered_iot"]).read_text())
        raw["nodes"][0]["service_goal"] = "no"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        code, out = run(capsys, "validate", "--model", str(bad))
        assert code == 1
        assert [issue["path"] for issue in json.loads(out)["result"]["issues"]] == \
            ["$.nodes[0].service_goal"]

    def test_unreadable_file_exits_one(self, capsys):
        code, _ = run(capsys, "validate", "--model", "/nonexistent/model.json")
        assert code == 1


class TestInfer:
    def test_single_query_with_evidence(self, capsys, model_files):
        code, out = run(capsys, "infer", "--model", model_files["layered_iot"],
                        "--query", "a14", "--observe", "a12=impaired")
        assert code == 0
        dist = json.loads(out)["result"]["marginal"]["distribution"]
        assert 0.0 <= dist["impaired"] <= 1.0
        assert dist["impaired"] > 0.05  # diagnostic update pulls above prior

    def test_all_nodes_without_query(self, capsys, model_files):
        code, out = run(capsys, "infer", "--model", model_files["layered_iot"])
        assert code == 0
        assert len(json.loads(out)["result"]["posteriors"]) == 9

    def test_model_without_gaps_is_built_once(self, capsys, monkeypatch, model_files):
        # The completed model of a document with no uncontrollable node is
        # its model, so the two share one compiled form.
        built = []
        init = BayesianModel.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BayesianModel, "__init__", counted)
        code, _ = run(capsys, "infer", "--model", model_files["layered_iot"])
        assert code == 0
        assert len(built) == 1

    def test_unknown_state_exits_one(self, capsys, model_files):
        code, _ = run(capsys, "infer", "--model", model_files["layered_iot"],
                      "--observe", "a12=melted")
        assert code == 1

    def test_evidence_stream_latest_record_per_node(self, capsys, tmp_path, model_files):
        stream = tmp_path / "e.ndjson"
        stream.write_text(
            '{"ts": 0, "node": "wifi_gateway", "state": "down"}\n'
            '{"ts": 50, "node": "wifi_gateway", "state": "up"}\n', encoding="utf-8")
        code, out = run(capsys, "infer", "--model", model_files["smart_home"],
                        "--query", "monitoring_app", "--evidence", str(stream))
        assert code == 0
        dist = json.loads(out)["result"]["marginal"]["distribution"]
        assert dist["live"] == pytest.approx(0.97)  # wifi up is the latest state


class TestCascade:
    def test_layered_scenario_report(self, capsys, model_files):
        code, out = run(capsys, "cascade", "--model", model_files["layered_iot"],
                        "--origin", "a14=impaired", "--rank")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["impact_set"] == ["a1", "a10", "a12", "a2", "a3", "a4", "a6", "a7"]
        assert result["nodes"]["a14"]["level"] == "atomic"
        assert result["ranking"][0]["node"] == "a14"

    def test_text_format(self, capsys, model_files):
        code, out = run(capsys, "cascade", "--model", model_files["layered_iot"],
                        "--origin", "a14=impaired", "--format", "text")
        assert code == 0
        assert "[cascade]" in out and "impact_set" in out


class TestDbn:
    def test_filter_with_evidence_stream(self, capsys, model_files):
        code, out = run(capsys, "dbn", "--model", model_files["smart_home"],
                        "--evidence", model_files["evidence"],
                        "--bucket-ms", "1000", "--mode", "filter")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["mode"] == "filter" and result["at"] == 1
        assert len(result["observations"]) == 2
        assert "wifi_gateway" in result["marginals"]

    def test_predict(self, capsys, model_files):
        code, out = run(capsys, "dbn", "--model", model_files["smart_home"],
                        "--mode", "predict", "--at", "0", "--horizon", "2")
        assert code == 0
        assert json.loads(out)["result"]["horizon"] == 2

    def test_smooth_without_slice_is_usage_error(self, capsys, model_files):
        code, _ = run(capsys, "dbn", "--model", model_files["smart_home"],
                      "--mode", "smooth", "--at", "1")
        assert code == 2

    def test_filter_at_last_slice_within_max_horizon(self, capsys, model_files):
        code, out = run(capsys, "dbn", "--model", model_files["smart_home"], "--at", "63")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["at"] == 63 and "wifi_gateway" in result["marginals"]

    def test_model_without_temporal_section_exits_one(self, capsys, model_files):
        code, _ = run(capsys, "dbn", "--model", model_files["layered_iot"])
        assert code == 1

    def test_temporal_model_compiled_once(self, capsys, monkeypatch, model_files):
        # One table build per transition and slice-0 table, however many
        # slices the query passes through; template tables are the
        # template model's compiled ones.
        built = []
        cpt_factor = temporal._cpt_factor

        def counted(cpt, domain, axes):
            built.append(cpt)
            return cpt_factor(cpt, domain, axes)

        monkeypatch.setattr(temporal, "_cpt_factor", counted)
        code, _ = run(capsys, "dbn", "--model", model_files["smart_home"], "--at", "5")
        assert code == 0
        spec = load_bundled_model("smart_home").temporal
        assert len(built) == len(spec.transition_cpts) + len(spec.initial_cpts) > 0


class TestEvidenceDigest:
    """With ``--evidence``, the report digests the model and the stream."""

    @pytest.mark.parametrize("verb", ["infer", "dbn"])
    def test_model_file_read_once(self, capsys, monkeypatch, model_files, verb):
        reads = []
        read_bytes = Path.read_bytes

        def counted(self):
            reads.append(str(self))
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        code, out = run(capsys, verb, "--model", model_files["smart_home"],
                        "--evidence", model_files["evidence"])
        assert code == 0
        assert reads.count(model_files["smart_home"]) == 1
        assert json.loads(out)["input_digest"] == input_digest(
            read_bytes(Path(model_files["smart_home"])),
            read_bytes(Path(model_files["evidence"])))


class TestIotmm:
    def test_detect_lists_gaps_and_catalogues(self, capsys, model_files):
        code, out = run(capsys, "iotmm", "--model", model_files["uncontrolled_sensor"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["uncontrollable"] == ["legacy_plc"]
        assert result["catalogues"]["legacy_plc"]["prior"] == [0.5, 0.5]

    def test_resolve_with_observation(self, capsys, model_files):
        code, out = run(capsys, "iotmm", "--model", model_files["uncontrolled_sensor"],
                        "--resolve", "legacy_plc", "--observe", "scada_link=fail")
        assert code == 0
        dist = json.loads(out)["result"]["posterior"]["distribution"]
        assert dist["bad"] == pytest.approx(8 / 9, abs=1e-9)


class TestCvss:
    def test_score_and_prior(self, capsys):
        code, out = run(capsys, "cvss", "--vector",
                        "AV:N/AC:L/Au:N/C:C/I:C/A:C/E:F/RL:OF/RC:C/CDP:H/TD:H/CR:M/IR:M/AR:L")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["base"] == 10.0
        assert result["temporal"] == 8.3
        assert result["environmental"] == 9.0
        assert result["prior"]["from_environmental"] == pytest.approx(0.9)

    def test_malformed_vector_exits_one(self, capsys):
        code, _ = run(capsys, "cvss", "--vector", "AV:N/AC:L")
        assert code == 1


class TestRoadmap:
    def test_gap_report_from_bundled_dataset(self, capsys, model_files):
        code, out = run(capsys, "roadmap", "--roadmap", model_files["roadmap"],
                        "--current", model_files["current"],
                        "--target", model_files["target"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["elements"] == 3
        assert [g["element"] for g in result["gaps"]] == ["ta-g1-o1-e1", "ta-g3-o1-e1"]
        assert result["gaps"][0]["steps"] == 3

    def test_no_gaps_yields_empty_array(self, capsys, model_files):
        code, out = run(capsys, "roadmap", "--roadmap", model_files["roadmap"],
                        "--current", model_files["target"],
                        "--target", model_files["target"])
        assert code == 0
        assert json.loads(out)["result"]["gaps"] == []

    @pytest.mark.parametrize("text, message", [
        ('{"a": ', "not valid JSON: Expecting value (line 1, column 7)"),
        ("[1, 2]", "expected an object mapping element ids to tiers"),
    ])
    def test_malformed_tiers_file_exits_one(self, capsys, tmp_path, model_files,
                                            text, message):
        tiers = tmp_path / "tiers.json"
        tiers.write_text(text, encoding="utf-8")
        code = main(["roadmap", "--roadmap", model_files["roadmap"],
                     "--current", str(tiers), "--target", model_files["target"]])
        assert code == 1
        assert capsys.readouterr().err == f"iotrisk: error: {tiers}: {message}\n"

    def test_scale_repeating_a_label_exits_one(self, capsys, model_files):
        code = main(["roadmap", "--roadmap", model_files["roadmap"],
                     "--current", model_files["current"], "--target", model_files["target"],
                     "--scale", "NotImplemented,Understood,NotImplemented,Implemented,Evidenced"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "iotrisk: error: tier scale repeats label 'NotImplemented'\n"

    # Tier files that cover every element of every section, so each section
    # choice reports on its own elements alone.
    @pytest.mark.parametrize("section,elements", [
        (None, 3), ("training-and-awareness", 3), ("all", 7),
        ("security-event-monitoring", 3),
    ])
    def test_section_chooses_the_elements(self, capsys, tmp_path, model_files,
                                          section, elements):
        ids = [e.id for e in parse_roadmap_document(
            Path(model_files["roadmap"]).read_text(encoding="utf-8"), None).elements()]
        tiers = {}
        for name, tier in (("current", "NotImplemented"), ("target", "Evidenced")):
            tiers[name] = tmp_path / f"{name}.json"
            tiers[name].write_text(json.dumps(dict.fromkeys(ids, tier)), encoding="utf-8")
        argv = ["roadmap", "--roadmap", model_files["roadmap"],
                "--current", str(tiers["current"]), "--target", str(tiers["target"])]
        if section is not None:
            argv += ["--section", section]
        code, out = run(capsys, *argv)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["elements"] == elements
        assert len(result["gaps"]) == elements

    def test_unknown_section_exits_one(self, capsys, model_files):
        code = main(["roadmap", "--roadmap", model_files["roadmap"], "--section", "nope",
                     "--current", model_files["current"], "--target", model_files["target"]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "iotrisk: error: 1 validation issue(s): $.sections: no section 'nope'; "
            "available: ['cyber-threat-intelligence', 'security-event-monitoring', "
            "'training-and-awareness']\n")

    def test_model_and_roadmap_together_is_usage_error(self, capsys, model_files):
        code, _ = run(capsys, "roadmap", "--model", model_files["smart_home"],
                      "--roadmap", model_files["roadmap"],
                      "--current", model_files["current"],
                      "--target", model_files["target"])
        assert code == 2

    @pytest.mark.parametrize("section", ["nope", "all", "training-and-awareness"])
    def test_section_with_model_is_usage_error(self, capsys, tmp_path, model_files, section):
        # Refused before any file is read: neither tier file exists.
        code = main(["roadmap", "--model", model_files["smart_home"], "--section", section,
                     "--current", str(tmp_path / "absent.json"),
                     "--target", str(tmp_path / "absent.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "iotrisk: usage error: --section applies only to --roadmap\n"


class TestSample:
    def test_seeded_run_is_reproducible(self, capsys, model_files):
        code, first = run(capsys, "sample", "--model", model_files["layered_iot"],
                          "--n", "20000", "--seed", "9")
        assert code == 0
        code, second = run(capsys, "sample", "--model", model_files["layered_iot"],
                           "--n", "20000", "--seed", "9")
        assert code == 0
        assert first == second


class TestExportDot:
    def test_writes_dot_to_file(self, capsys, tmp_path, model_files):
        out_path = tmp_path / "graph.dot"
        code, _ = run(capsys, "export-dot", "--model", model_files["layered_iot"],
                      "--origin", "a14=impaired", "--output", str(out_path))
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("digraph")
        assert "subgraph cluster_" in text


class TestOutput:
    def test_unwritable_output_is_a_write_failure(self, capsys, tmp_path, model_files):
        target = tmp_path / "missing" / "report.json"
        code = main(["infer", "--model", model_files["layered_iot"], "--output", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("iotrisk: cannot write output: [Errno 2] No such file or "
                       f"directory: {str(target)!r}\n")


class TestUsage:
    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_observation_syntax_exits_two(self, capsys, model_files):
        with pytest.raises(SystemExit) as err:
            main(["infer", "--model", model_files["layered_iot"], "--observe", "nope"])
        assert err.value.code == 2

    @pytest.mark.parametrize("verb,flag,node", [
        ("infer", "--observe", "a14"),
        ("cascade", "--origin", "a14"),
        ("iotmm", "--observe", "scada_link"),
        ("export-dot", "--origin", "a14"),
    ])
    def test_node_given_two_states_exits_two(self, capsys, verb, flag, node):
        # Refused before the model is read: the path names no file.
        with pytest.raises(SystemExit) as err:
            main([verb, "--model", "/nonexistent/model.json",
                  flag, f"{node}=impaired", flag, f"{node}=operational"])
        assert err.value.code == 2
        assert (f"argument {flag}: node {node!r} given as both 'impaired' and "
                "'operational'") in capsys.readouterr().err

    @pytest.mark.parametrize("verb,flag", [("infer", "--observe"), ("cascade", "--origin")])
    def test_same_pair_given_twice_is_one_assignment(self, capsys, model_files, verb, flag):
        once = run(capsys, verb, "--model", model_files["layered_iot"], flag, "a14=impaired")
        twice = run(capsys, verb, "--model", model_files["layered_iot"],
                    flag, "a14=impaired", flag, "a14=impaired")
        assert once[0] == 0
        assert twice == once

    @pytest.mark.parametrize("args,flag,mode", [
        (("--mode", "filter", "--slice", "3", "--at", "1"), "--slice", "smooth"),
        (("--mode", "predict", "--slice", "0"), "--slice", "smooth"),
        (("--horizon", "2"), "--horizon", "predict"),
        (("--mode", "smooth", "--slice", "0", "--horizon", "1"), "--horizon", "predict"),
    ])
    def test_dbn_flag_of_another_mode_exits_two(self, capsys, model_files, args, flag, mode):
        assert main(["dbn", "--model", model_files["smart_home"], *args]) == 2
        assert capsys.readouterr().err == \
            f"iotrisk: usage error: {flag} applies only to --mode {mode}\n"

    def test_export_dot_takes_no_format(self, capsys, model_files):
        with pytest.raises(SystemExit) as err:
            main(["export-dot", "--model", model_files["layered_iot"], "--format", "text"])
        assert err.value.code == 2
        assert "unrecognized arguments: --format text" in capsys.readouterr().err


def child_env() -> dict:
    """This environment, with the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so an escaping exception shows as a traceback."""
    return subprocess.run([sys.executable, "-m", "iotrisk.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=60)


def with_paths(argv, paths) -> list[str]:
    """``argv`` with every argument after the verb that names a key of
    ``paths`` replaced by that path."""
    return [argv[0], *(paths.get(a, a) for a in argv[1:])]


class TestBoundary:
    """Bad arguments and malformed input exit 2 or 1 without a traceback."""

    def test_zero_bucket_width_is_usage_error(self, model_files):
        proc = run_process("dbn", "--model", model_files["smart_home"],
                           "--evidence", model_files["evidence"], "--bucket-ms", "0")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_zero_sample_count_is_usage_error(self, model_files):
        proc = run_process("sample", "--model", model_files["layered_iot"], "--n", "0")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_negative_seed_is_usage_error(self, model_files):
        proc = run_process("sample", "--model", model_files["layered_iot"], "--seed", "-1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args,message", [
        (("--at", "-1"), "argument --at: must be >= 0, got -1"),
        (("--mode", "smooth", "--slice", "-1"), "argument --slice: must be >= 0, got -1"),
        (("--mode", "predict", "--horizon", "0"), "argument --horizon: must be >= 1, got 0"),
        (("--at", "1.5"), "argument --at: expected an integer, got '1.5'"),
    ])
    def test_dbn_integer_below_minimum_is_usage_error(self, model_files, args, message):
        proc = run_process("dbn", "--model", model_files["smart_home"], *args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_sample_count_beyond_array_index_exits_one(self, model_files):
        proc = run_process("sample", "--model", model_files["layered_iot"],
                           "--n", "99999999999999999999")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "sample count" in proc.stderr

    @pytest.mark.parametrize("args,message", [
        (("--at", "64"), "time index 64 is beyond max_horizon 64 (slices 0..63)"),
        (("--mode", "predict", "--horizon", "100"),
         "predicted slice 100 (time index 0 + horizon 100) is beyond "
         "max_horizon 64 (slices 0..63)"),
    ])
    def test_slice_beyond_max_horizon_names_the_request(self, model_files, args, message):
        proc = run_process("dbn", "--model", model_files["smart_home"], *args)
        assert proc.returncode == 1
        assert proc.stderr == f"iotrisk: error: {message}\n"

    def test_max_horizon_below_one_exits_one(self, tmp_path, model_files):
        raw = json.loads(Path(model_files["smart_home"]).read_text())
        raw["temporal"]["max_horizon"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_process("dbn", "--model", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "$.temporal.max_horizon" in proc.stderr
        assert "expected an integer >= 1, got 0" in proc.stderr

    # Only a JSON integer is an integer: no float, bool or numeric string.
    @pytest.mark.parametrize("ts", ["x", 1.9, True, "17"])
    def test_non_integer_evidence_timestamp_exits_one(self, tmp_path, model_files, ts):
        stream = tmp_path / "e.ndjson"
        stream.write_text(json.dumps({"ts": ts, "node": "monitoring_app", "state": "stale"})
                          + "\n", encoding="utf-8")
        proc = run_process("dbn", "--model", model_files["smart_home"],
                           "--evidence", str(stream))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"evidence line 1: ts must be an integer (epoch ms), got {ts!r}" in proc.stderr

    @pytest.mark.parametrize("records, message", [
        ([{"ts": 1, "node": "ghost", "state": "x"}],
         "evidence line 1: unknown node 'ghost'"),
        ([{"ts": 0, "node": "monitoring_app", "state": "stale"},
          {"ts": 1, "node": "monitoring_app", "state": "x"}],
         "evidence line 2: node 'monitoring_app' has no state 'x'; domain is ('live', 'stale')"),
    ])
    def test_unknown_evidence_node_or_state_is_located(self, tmp_path, model_files,
                                                       records, message):
        stream = tmp_path / "e.ndjson"
        stream.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        proc = run_process("infer", "--model", model_files["smart_home"],
                           "--evidence", str(stream))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"iotrisk: error: {message}\n"

    # An empty option value is a value given: a node id no node has, or a
    # second source for the roadmap.
    @pytest.mark.parametrize("argv,code,message", [
        (("infer", "--model", "layered_iot", "--query", ""), 1,
         "iotrisk: error: unknown node ''\n"),
        (("iotmm", "--model", "uncontrolled_sensor", "--resolve", ""), 1,
         "iotrisk: error: unknown node ''\n"),
        (("roadmap", "--model", "", "--roadmap", "roadmap", "--current", "current",
          "--target", "target"), 2,
         "iotrisk: usage error: give exactly one of --model or --roadmap\n"),
    ], ids=["infer-query", "iotmm-resolve", "roadmap-model"])
    def test_empty_value_is_a_given_value(self, capsys, model_files, argv, code, message):
        assert main(with_paths(argv, model_files)) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    # An empty path is a path given: one that names no file to read or write.
    @pytest.mark.parametrize("argv,message", [
        (("infer", "--model", "layered_iot", "--evidence", ""), "cannot read input"),
        (("dbn", "--model", "smart_home", "--evidence", ""), "cannot read input"),
        (("validate", "--model", "layered_iot", "--output", ""), "cannot write output"),
        (("validate", "--model", ""), "cannot read input"),
        (("roadmap", "--roadmap", "", "--current", "current", "--target", "target"),
         "cannot read input"),
        (("roadmap", "--roadmap", "roadmap", "--current", "", "--target", "target"),
         "cannot read input"),
    ], ids=["infer-evidence", "dbn-evidence", "validate-output", "validate-model",
            "roadmap-roadmap", "roadmap-current"])
    def test_empty_path_is_a_given_path(self, capsys, model_files, argv, message):
        assert main(with_paths(argv, model_files)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"iotrisk: {message}: ")
        assert captured.err.endswith(": ''\n")

    def test_wide_gap_node_exits_one(self, tmp_path):
        # 24 binary roots feed one node with no CPT, so its catalogue-backed
        # table would have 2^24 rows.  The address-space cap turns a build of
        # them into a MemoryError rather than a drain on the host.
        roots = [f"r{i:02d}" for i in range(24)]
        doc = {
            "schema_version": 1,
            "nodes": [{"id": r, "layer": "perception", "states": ["ok", "bad"]} for r in roots]
            + [{"id": "gap", "layer": "network", "states": ["ok", "bad"]}],
            "edges": [{"from": r, "to": "gap"} for r in roots],
            "cpts": {r: {"parents": [], "rows": [{"given": [], "p": [0.9, 0.1]}]}
                     for r in roots},
        }
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_capped("-m", "iotrisk.cli", "infer", "--model", str(path), timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("iotrisk: error: uncontrollable node 'gap' has 16777216 "
                               "parent-state combinations; a catalogue-backed table may "
                               "have at most 65536\n")

    def test_wide_model_point_query_exits_zero(self, tmp_path):
        # Summing out every node of this model multiplies 2^29-entry
        # factors, beyond the child's 1.5 GiB cap; the query's ancestors fit.
        model = wide_model()
        path = tmp_path / "wide.json"
        path.write_text(serialize_model(ModelDocument(model.graph, model.cpts)),
                        encoding="utf-8")
        query = max(model.graph.node_ids, key=lambda nid: len(ancestors(model.graph, nid)))
        proc = run_capped("-m", "iotrisk.cli", "infer", "--model", str(path),
                          "--query", query, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["query"] == query
        assert math.fsum(result["marginal"]["distribution"].values()) == \
            pytest.approx(1.0, abs=ORACLE_TOL)

    @pytest.mark.parametrize("max_horizon", ["abc", 1.9, True, "64"])
    def test_non_integer_max_horizon_exits_one(self, tmp_path, model_files, max_horizon):
        raw = json.loads(Path(model_files["smart_home"]).read_text())
        raw["temporal"]["max_horizon"] = max_horizon
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_process("dbn", "--model", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "$.temporal.max_horizon" in proc.stderr
        assert f"expected an integer, got {max_horizon!r}" in proc.stderr

    @pytest.mark.parametrize("temporal_patch", [
        {"edges": [{"from": ["wifi_gateway"], "to": "wifi_gateway"}]},
        {"transition_cpts": []},
    ])
    def test_mistyped_temporal_section_exits_one(self, tmp_path, model_files,
                                                 temporal_patch):
        raw = json.loads(Path(model_files["smart_home"]).read_text())
        raw["temporal"].update(temporal_patch)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_process("dbn", "--model", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "$.temporal." in proc.stderr

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
    def test_malformed_tier_file_exits_one(self, tmp_path, model_files, text):
        current = tmp_path / "current.json"
        current.write_text(text, encoding="utf-8")
        proc = run_process("roadmap", "--roadmap", model_files["roadmap"],
                           "--current", str(current), "--target", model_files["target"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(current) in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("validate", "--model", "BAD"),
        ("infer", "--model", "BAD"),
        ("dbn", "--model", "BAD"),
        ("infer", "--model", "smart_home", "--evidence", "BAD"),
        ("dbn", "--model", "smart_home", "--evidence", "BAD"),
        ("roadmap", "--model", "BAD", "--current", "current", "--target", "target"),
        ("roadmap", "--roadmap", "BAD", "--current", "current", "--target", "target"),
        ("roadmap", "--roadmap", "roadmap", "--current", "BAD", "--target", "target"),
        ("roadmap", "--roadmap", "roadmap", "--current", "current", "--target", "BAD"),
    ], ids=lambda argv: argv[0] + argv[argv.index("BAD") - 1])
    def test_non_utf8_input_exits_one(self, tmp_path, model_files, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"a": "\xff\xfe"}')
        paths = dict(model_files, BAD=str(bad))
        proc = run_process(*with_paths(argv, paths))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{bad}: not UTF-8 text" in proc.stderr
        assert "byte offset 7" in proc.stderr


def run_in_fresh_interpreter(argvs, prelude: str = "", openblas: str | None = None,
                             hashseed: str | None = None) -> dict:
    """Run ``prelude``, then each argv through ``cli.main``, in one fresh
    interpreter whose ``OPENBLAS_NUM_THREADS`` is ``openblas`` (None: unset)
    and whose ``PYTHONHASHSEED`` is ``hashseed`` (None: as in this process).

    Returns ``{"runs": [[exit code, stdout], ...], "numpy": <imported?>,
    "modules": <loaded iotrisk.* modules>, "openblas": <the variable at exit>,
    "environ_changed": <variables set, changed or removed in the process>}``.
    """
    script = ("import os\n"
              "start = dict(os.environ)\n"
              f"{prelude}\n"
              "import contextlib, io, json, sys\n"
              "runs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    from iotrisk.cli import main\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        runs.append([main(argv), out.getvalue()])\n"
              "print(json.dumps({\n"
              "    'runs': runs, 'numpy': 'numpy' in sys.modules,\n"
              "    'modules': sorted(m for m in sys.modules if m.startswith('iotrisk.')),\n"
              "    'openblas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
              "    'environ_changed': sorted(k for k in start.keys() | os.environ.keys()\n"
              "                              if start.get(k) != os.environ.get(k))}))\n")
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


# Verbs that never build an array, with the SHA-256 of each report; the
# reports are byte-identical to those of the build that imported numpy eagerly.
NUMPY_FREE_REPORTS = [
    (("validate", "--model", "layered_iot"),
     "403e43d9326aabf94e0800357fb4e362a23c1d6815216240bfaa009def61f43d"),
    (("validate", "--model", "smart_home"),
     "e61e8ea93b4355f22835c74c047ad79e7e8e1df02d476bad87baf86ac49b8d90"),
    (("validate", "--model", "uncontrolled_sensor"),
     "53082878a7608292ecf83c269799b90a07d51e2babbe7d8c6e7514290ac9cad0"),
    (("export-dot", "--model", "layered_iot"),
     "3b3a54f81cd5757f101b83dbab8b4898c967b7f5480dc4c2c680f4c9e5575351"),
    (("cvss", "--vector", "AV:N/AC:L/Au:N/C:P/I:P/A:C/E:F/RL:OF/RC:C/CDP:LM/TD:H"),
     "17d9e5a778e163e442fc44aea0c85b3fa2d6d05427b8a78a46f17e1e94ebd543"),
    (("roadmap", "--roadmap", "roadmap", "--current", "current", "--target", "target"),
     "c1af265c67eefba05906d475419b283e15ec3be26da735ae4d6b52eb3b4a9e35"),
    (("iotmm", "--model", "uncontrolled_sensor"),
     "c543e452f66858236b5e1fd414ab441171c50ebe6e3f9280ffe3793180deb741"),
]


# Numeric verbs on the bundled models, with the SHA-256 of each report.  The
# engine may change how it computes an answer, never one bit of the answer.
NUMERIC_REPORTS = [
    (("infer", "--model", "layered_iot"),
     "4a4ebf461807449a196cbed6a8f02208e0b2fa6fd23f8fe5bc6328ea5113c5be"),
    (("infer", "--model", "smart_home", "--evidence", "evidence"),
     "7a8c0698dfc3f509740bb842552959caa90aa751fbf7390128740ef6c677ddbb"),
    (("cascade", "--model", "layered_iot", "--origin", "a14=impaired", "--rank"),
     "81761d473310797ba65e5cf5fb02c70c0a4a4ec63a9059592b7bd9e08c7187c7"),
    (("dbn", "--model", "smart_home", "--evidence", "evidence"),
     "d1be050fa5393e3b1c69a866b44f3146a8c45340fddf43f53240ee78461560b5"),
    (("dbn", "--model", "smart_home", "--evidence", "evidence", "--mode", "smooth",
      "--slice", "0"),
     "f43401baccb5e178a06246fe4a9e5fc0ac467c62572edbb71281fab4c8d52f08"),
    (("dbn", "--model", "smart_home", "--evidence", "evidence", "--mode", "predict",
      "--horizon", "3"),
     "3014feb3a1a458559352aeb045069f7cb9fe8f329ca4eb70c0d1c5508be64b47"),
    (("iotmm", "--model", "uncontrolled_sensor", "--resolve", "legacy_plc"),
     "3df72b2d2fad2562a28eef81f9f84b7d61b8c7c406063cf5604901df6bc75d9c"),
]


class TestNumericReports:
    # Two hash seeds: the models' checks and groupings are built from dicts
    # and sets, and no report may depend on their iteration order.
    @pytest.mark.parametrize("hashseed", ["1", "2"])
    def test_reports_keep_their_bytes(self, model_files, hashseed):
        argvs = [with_paths(argv, model_files) for argv, _ in NUMERIC_REPORTS]
        got = run_in_fresh_interpreter(argvs, hashseed=hashseed)
        assert [code for code, _ in got["runs"]] == [0] * len(argvs)
        assert [hashlib.sha256(out.encode("utf-8")).hexdigest()
                for _, out in got["runs"]] == [sha for _, sha in NUMERIC_REPORTS]


class TestNumpyOnDemand:
    """numpy is imported by the first query that builds an array, not by
    ``import iotrisk``."""

    def test_non_numeric_verbs_never_import_numpy(self, model_files):
        argvs = [with_paths(argv, model_files) for argv, _ in NUMPY_FREE_REPORTS]
        got = run_in_fresh_interpreter(argvs)
        assert [code for code, _ in got["runs"]] == [0] * len(argvs)
        assert [hashlib.sha256(out.encode("utf-8")).hexdigest()
                for _, out in got["runs"]] == [sha for _, sha in NUMPY_FREE_REPORTS]
        assert got["numpy"] is False

    def test_numeric_verb_imports_numpy_and_answers(self, model_files):
        got = run_in_fresh_interpreter(
            [["infer", "--model", model_files["layered_iot"], "--query", "a14"]])
        (code, out), = got["runs"]
        assert code == 0
        assert sum(json.loads(out)["result"]["marginal"]["distribution"].values()) \
            == pytest.approx(1.0, abs=1e-12)
        assert got["numpy"] is True


# Each target: the file whose bytes are mutated, and the argv that reads it.
MUTATION_TARGETS = [
    ("layered_iot", ("validate", "--model", "X")),
    ("layered_iot", ("infer", "--model", "X")),
    ("layered_iot", ("cascade", "--model", "X", "--origin", "a14=impaired", "--rank")),
    ("layered_iot", ("sample", "--model", "X", "--n", "100")),
    ("smart_home", ("dbn", "--model", "X", "--evidence", "evidence")),
    ("uncontrolled_sensor", ("iotmm", "--model", "X")),
    ("evidence", ("dbn", "--model", "smart_home", "--evidence", "X", "--mode", "smooth",
                  "--slice", "0")),
    ("evidence", ("infer", "--model", "smart_home", "--evidence", "X")),
    ("roadmap", ("roadmap", "--roadmap", "X", "--current", "current", "--target", "target")),
    ("current", ("roadmap", "--roadmap", "roadmap", "--current", "X", "--target", "target")),
]

# (position, byte, how): position is taken modulo the file length.
mutations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2 ** 20), st.integers(0, 255),
              st.sampled_from(("replace", "insert", "delete"))),
    min_size=1, max_size=4)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for pos, byte, how in edits:
        k = pos % (len(buf) + 1)
        if how == "insert":
            buf[k:k] = bytes([byte])
        elif k < len(buf):
            if how == "replace":
                buf[k] = byte
            else:
                del buf[k]
    return bytes(buf)


class TestMutatedInputs:
    """Mutated documents and evidence, non-UTF-8 bytes included, never escape
    ``main`` as an exception: every run ends in exit code 0, 1 or 2."""

    @given(target=st.sampled_from(MUTATION_TARGETS), edits=mutations)
    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exit_code_is_0_1_or_2(self, model_files, target, edits):
        source, argv = target
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated"
            path.write_bytes(mutate(Path(model_files[source]).read_bytes(), edits))
            paths = dict(model_files, X=str(path))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(with_paths(argv, paths))
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


# Modules that load on first use; see ``iotrisk.__init__``.
DEFERRED = {"iotrisk.cvss", "iotrisk.roadmap", "iotrisk.bundled"}
CVSS_ARGV = ["cvss", "--vector", "AV:N/AC:L/Au:N/C:P/I:P/A:C"]

# ``dir(iotrisk)`` and ``from iotrisk import *`` without underscore names,
# as recorded while every module was imported eagerly.
PUBLIC_NAMES = [
    "APPLICATION", "BUILTIN_LAYERS", "BayesianModel", "BoundRoadmap", "CatalogueSource",
    "ComponentNode", "ControlElement", "ControlGoal", "ControlObjective", "Cpt",
    "CriticalityEntry", "CvssVector", "CyclicGraph", "DEFAULT_MAX_HORIZON",
    "DEFAULT_ROADMAP_SECTION", "DEFAULT_TIER_SCALE", "DependencyGraph", "DocumentError",
    "DuplicateId", "EmptyGoal", "Epistemic", "EventLevel", "EvidenceRecord", "ImpactReport",
    "ImpossibleEvidence", "IncidentScenario", "IncompleteAssignment", "InfluenceEdge",
    "InvalidArgument", "InvalidDistribution", "InvalidHorizon", "InvalidMetricValue",
    "IotRiskError", "LevelClassification", "LinearPriorMapping", "LogisticPriorMapping",
    "Marginal", "MissingAssignment", "MissingCpt", "ModelDocument", "ModelError",
    "ModelSyntaxError", "NETWORK", "NodeImpact", "NodeRelation", "NotMeasurable",
    "NotUncontrollable", "ORACLE_TOL", "ObservationBeyondHorizon", "ObservationSeries",
    "OutOfRange", "PERCEPTION", "ROW_SUM_TOL", "RoadmapModel", "SCHEMA_VERSION",
    "SchemaVersionMismatch", "SliceTemplate", "StateCatalogue", "StateDomain",
    "TemporalEdge", "TemporalModel", "TemporalSpec", "TierGap", "UnknownNode",
    "UnknownState", "UnknownTierLabel", "UnresolvableNode", "ValidationFailed",
    "ValidationReport", "Violation", "achievement_states", "ancestors", "and_cpt",
    "base_score", "bind_elements", "build_roadmap", "bundled", "bundled_model_names",
    "cascade", "catalogue", "classify_epistemic", "classify_levels", "complete_model",
    "cvss", "dependency_order", "descendants", "detect_uncontrollable", "documents",
    "eliminate_marginal", "emit_report", "enumerate_marginal", "enumerate_posteriors",
    "environmental_score", "errors", "export_dot", "filter_marginals", "gap_report",
    "graph", "impact_probabilities", "impact_set", "inference", "ingest_evidence",
    "input_digest", "joint_probability", "load_bundled_model", "load_bundled_roadmap",
    "logic_gate_cpt", "model", "monte_carlo_sample", "or_cpt", "parse_model",
    "parse_roadmap_document", "posterior_update", "predict_marginals",
    "prior_cpt_from_score", "rank_criticality", "read_evidence", "reporting",
    "resolve_uncontrollable", "roadmap", "roadmap_section_keys", "sampling",
    "score_summary", "score_to_prior", "serialize_model", "slice_id", "smooth_marginals",
    "temporal", "temporal_score", "to_jsonable", "topological_order", "uncontrollable",
    "unroll", "unrolled_marginals", "validate",
]


class TestStartUp:
    """What each entry point loads, and the OpenBLAS default ``main`` sets."""

    def test_import_iotrisk_loads_no_numpy_and_no_deferred_module(self):
        got = run_in_fresh_interpreter([], prelude="import iotrisk")
        assert got["numpy"] is False
        assert not DEFERRED & set(got["modules"])
        assert "iotrisk.cli" not in got["modules"]

    @pytest.mark.parametrize("argv", [
        ("infer", "--model", "layered_iot"),
        ("cascade", "--model", "layered_iot", "--origin", "a14=impaired", "--rank"),
    ], ids=lambda argv: argv[0])
    def test_numeric_verbs_load_no_deferred_module(self, model_files, argv):
        got = run_in_fresh_interpreter([with_paths(argv, model_files)])
        assert [code for code, _ in got["runs"]] == [0]
        assert got["numpy"] is True
        assert not DEFERRED & set(got["modules"])

    def test_cvss_loads_neither_numpy_nor_roadmap(self):
        got = run_in_fresh_interpreter([CVSS_ARGV])
        assert [code for code, _ in got["runs"]] == [0]
        assert got["numpy"] is False
        assert "iotrisk.cvss" in got["modules"]
        assert not {"iotrisk.roadmap", "iotrisk.bundled"} & set(got["modules"])

    def test_main_holds_openblas_to_one_thread_when_unset(self):
        got = run_in_fresh_interpreter([CVSS_ARGV])
        assert got["openblas"] == "1"
        assert got["environ_changed"] == ["OPENBLAS_NUM_THREADS"]

    def test_main_keeps_a_preset_openblas_value(self):
        got = run_in_fresh_interpreter([CVSS_ARGV], openblas="3")
        assert got["openblas"] == "3"
        assert got["environ_changed"] == []

    def test_main_leaves_openblas_unset_once_numpy_is_loaded(self):
        got = run_in_fresh_interpreter([CVSS_ARGV], prelude="import numpy")
        assert got["openblas"] is None
        assert got["environ_changed"] == []

    def test_importing_cli_leaves_the_environment_untouched(self):
        got = run_in_fresh_interpreter([], prelude="import iotrisk.cli")
        assert got["environ_changed"] == []
        assert "iotrisk.cli" in got["modules"]

    def test_public_names_are_unchanged(self):
        script = ("import json, iotrisk\n"
                  "listed = sorted(n for n in dir(iotrisk) if not n.startswith('_'))\n"
                  "star = {}\n"
                  "exec('from iotrisk import *', star)\n"
                  "print(json.dumps([listed, sorted(n for n in star if not n.startswith('_'))]))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        listed, star = json.loads(proc.stdout)
        assert listed == PUBLIC_NAMES
        assert star == PUBLIC_NAMES
