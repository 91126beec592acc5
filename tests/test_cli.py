import json
from pathlib import Path

from kodaira.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def write_instance(tmp_path, doc, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def staircase_doc(**options):
    return {
        "schema_version": "1", "kind": "semigroup",
        "body": {"ambient_rank": 1, "generators": [[0, 1], [1, 1]]},
        "options": options or {"max_degree": 8},
    }


def separation_doc():
    return {
        "schema_version": "1", "kind": "toric_kappa",
        "body": {"variety": {"preset": "projective_space", "n": 1},
                 "coefficients": [0, 0],
                 "metric": [{"ray": 0, "weight": "1"}]},
        "options": {"max_degree": 16},
    }


def test_semigroup_staircase(tmp_path, capsys):
    path = write_instance(tmp_path, staircase_doc())
    code = main(["semigroup", path, "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["regularization"]["okounkov_dim"] == 1
    assert rep["regularization"]["m"] == 1
    assert rep["growth_law"]["predicted"] == "1"


def test_semigroup_doubled_vertices(tmp_path, capsys):
    doc = staircase_doc()
    doc["body"]["generators"] = [[0, 2], [1, 2]]
    path = write_instance(tmp_path, doc)
    code = main(["semigroup", path, "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["regularization"]["m"] == 2
    assert rep["regularization"]["okounkov_vertices"] == [["0", "1"], ["1/2", "1"]]


def test_malformed_json_exit2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["semigroup", str(p)]) == 2


def test_unknown_field_rejected(tmp_path):
    doc = staircase_doc()
    doc["body"]["surprise"] = 1
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 2


def test_wrong_kind_for_command(tmp_path):
    assert main(["kappa", write_instance(tmp_path, staircase_doc())]) == 2


def test_empty_semigroup_exit3(tmp_path):
    doc = {
        "schema_version": "1", "kind": "semigroup",
        "body": {"ambient_rank": 1, "levels": {"1": [], "2": []}},
        "options": {"max_degree": 4},
    }
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 3


def test_kappa_separation(tmp_path, capsys):
    path = write_instance(tmp_path, separation_doc())
    code = main(["kappa", path, "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kappa"] is None  # -inf serializes as null
    assert rep["kappa_sigma"] == 0


def test_kappa_stride_flags(tmp_path, capsys):
    path = write_instance(tmp_path, separation_doc())
    code = main(["kappa", path, "--format", "json", "--stride", "2",
                 "--stride", "3"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kappa_sigma_strides"] == {"2": 0, "3": 0}


def test_fibration_precondition_exit2(tmp_path):
    doc = {
        "schema_version": "1", "kind": "fibration",
        "body": {"variant": "toric_product",
                 "fiber": {"preset": "projective_space", "n": 1},
                 "base": {"preset": "projective_space", "n": 1},
                 "dx_rays": [0], "dy_rays": [0]},
        "options": {"max_degree": 8},
    }
    assert main(["fibration", write_instance(tmp_path, doc)]) == 2


def test_fibration_report(tmp_path, capsys):
    doc = {
        "schema_version": "1", "kind": "fibration",
        "body": {"variant": "curve_times_toric", "genus": 2,
                 "fiber": {"preset": "projective_space", "n": 1},
                 "fiber_divisor": [0, 2],
                 "fiber_metric": [{"ray": 0, "weight": "2"}],
                 "checks": ["dio"]},
        "options": {"max_degree": 16},
    }
    code = main(["fibration", write_instance(tmp_path, doc), "--format", "json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdicts"][0]["check"] == "dio_equality"
    assert rep["verdicts"][0]["holds"] is True
    assert rep["verdicts"][0]["lhs"] == 2


def test_deterministic_output(tmp_path, capsys):
    path = write_instance(tmp_path, separation_doc())
    main(["kappa", path, "--format", "json"])
    first = capsys.readouterr().out
    main(["kappa", path, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    assert "generated_at" not in first


def test_timestamps_flag(tmp_path, capsys):
    path = write_instance(tmp_path, separation_doc())
    main(["kappa", path, "--format", "json", "--timestamps"])
    assert "generated_at" in capsys.readouterr().out


def test_out_file_and_csv(tmp_path):
    path = write_instance(tmp_path, separation_doc())
    out = tmp_path / "report.csv"
    code = main(["kappa", path, "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variety,kappa,kappa_sigma,witness_degree"
    assert lines[1].startswith("P1,None,0")


def test_export_polytope(tmp_path):
    path = write_instance(tmp_path, staircase_doc())
    off = tmp_path / "body.off"
    code = main(["semigroup", path, "--export-polytope", str(off)])
    assert code == 0
    content = off.read_text().splitlines()
    assert content[0] == "OFF"
    assert content[1] == "2 0 0"
    assert content[2:] == ["0 1", "1 1"]


def test_schema_version_checked(tmp_path):
    doc = staircase_doc()
    doc["schema_version"] = "99"
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 2


def test_verify_suite_on_bundled_corpus(capsys):
    code = main(["verify-suite", str(CORPUS), "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["failed"] == 0
    assert rep["ran"] == len(list(CORPUS.glob("*.json")))


def test_verify_suite_empty_dir(tmp_path, capsys):
    code = main(["verify-suite", str(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    assert "ran 0" in out.out
    assert "warning" in out.err


def test_verify_suite_missing_dir(tmp_path):
    assert main(["verify-suite", str(tmp_path / "nope")]) == 2


def test_verify_suite_failure_propagates(tmp_path, capsys):
    bad = {
        "schema_version": "1", "kind": "multiplier_scan",
        "body": {"mu_grid": ["3/2"], "k_max": 10},
        "options": {},
    }
    write_instance(tmp_path, bad, "scan.json")
    p = tmp_path / "broken.json"
    p.write_text("{")
    code = main(["verify-suite", str(tmp_path), "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["failed"] == 1  # only the broken file


def test_verify_suite_jobs_deterministic(capsys):
    main(["verify-suite", str(CORPUS), "--format", "json"])
    serial = capsys.readouterr().out
    main(["verify-suite", str(CORPUS), "--format", "json", "--jobs", "3"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_underresolved_bound_exit4(tmp_path):
    doc = {
        "schema_version": "1", "kind": "toric_kappa",
        "body": {"variety": {"preset": "projective_space", "n": 2},
                 "coefficients": [1, 1, 1]},
        "options": {"max_degree": 2},
    }
    assert main(["kappa", write_instance(tmp_path, doc)]) == 4


def ample_doc(**options):
    doc = json.loads((CORPUS / "kappa_p2_ample.json").read_text())
    doc["options"] = options
    return doc


def test_non_integer_max_degree_is_input_error(tmp_path, capsys):
    path = write_instance(tmp_path, ample_doc(max_degree="5"))
    assert main(["kappa", path]) == 2
    assert "max_degree: expected positive integer" in capsys.readouterr().err


def test_zero_max_degree_is_input_error(tmp_path, capsys):
    assert main(["kappa", write_instance(tmp_path, ample_doc(max_degree=0))]) == 2
    path = write_instance(tmp_path, ample_doc(), name="ok.json")
    assert main(["kappa", path, "--max-degree", "0"]) == 2
    assert "max_degree: expected positive integer" in capsys.readouterr().err


def test_zero_stride_is_input_error(tmp_path, capsys):
    assert main(["kappa", write_instance(tmp_path, ample_doc(strides=[0]))]) == 2
    path = write_instance(tmp_path, ample_doc(), name="ok.json")
    assert main(["kappa", path, "--stride", "0"]) == 2
    assert "stride: expected positive integer" in capsys.readouterr().err
    assert main(["kappa", write_instance(tmp_path, ample_doc(strides=2))]) == 2


def test_zero_growth_k_max_is_input_error(tmp_path, capsys):
    doc = staircase_doc(max_degree=8, growth_k_max=0)
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 2
    assert "growth_k_max: expected positive integer" in capsys.readouterr().err


def test_verify_suite_reports_bad_option_as_input_error(tmp_path, capsys):
    write_instance(tmp_path, ample_doc(max_degree="5"), name="bad.json")
    assert main(["verify-suite", str(tmp_path), "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == [{"file": "bad.json", "kind": "error", "exit": 2}]


def test_nef_but_not_ample_perturbation_is_input_error(tmp_path, capsys):
    # on F1, (-1, -1, 0, 2) is nef: its polytope is a triangle, not a
    # polygon with one vertex per maximal cone
    doc = {
        "schema_version": "1", "kind": "toric_kappa",
        "body": {"variety": {"preset": "hirzebruch", "a": 1},
                 "coefficients": [1, 1, 1, 1], "ample": [-1, -1, 0, 2]},
        "options": {"max_degree": 12},
    }
    assert main(["kappa", write_instance(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "input error: perturbation divisor is not ample\n")


def test_undecodable_file_is_input_error(tmp_path, capsys):
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    assert main(["kappa", str(tmp_path / "bad.json")]) == 2
    assert capsys.readouterr().err.startswith("input error: 'utf-8' codec")
    assert main(["verify-suite", str(tmp_path), "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == [{"file": "bad.json", "kind": "error", "exit": 2}]
