import json
from pathlib import Path

import pytest

from kodaira.cli import ValidationError, _run_file, main, run_instance

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


def test_semigroup_levels_above_max_degree_stay_out(tmp_path, capsys):
    # a stored level above max_degree, here a far point that would stretch
    # the Okounkov body, is neither hulled nor counted
    # but named in one warning on stderr
    doc = json.loads((CORPUS / "semigroup_triangle_levels.json").read_text())
    top = doc["options"]["max_degree"]
    outs, errs = [], []
    for extra in ([], [[50, 0]]):
        if extra:
            doc["body"]["levels"][str(top + 1)] = extra
            doc["body"]["levels"][str(top + 3)] = extra
        assert main(["semigroup", write_instance(tmp_path, doc), "--format",
                     "json"]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        errs.append(captured.err)
    assert outs[0] == outs[1]
    assert errs[0] == ""
    assert errs[1] == (f"warning: levels {top + 1}, {top + 3} lie above "
                       f"max_degree {top} and are ignored\n")


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


def test_unknown_or_unhashable_kind_is_input_error(tmp_path, capsys):
    # a JSON list or object as kind cannot be looked up in the table of
    # kinds; it is an unknown kind like any other, not a TypeError
    for kind in ("polytope", ["semigroup"], {"kind": "semigroup"}, 3, None):
        doc = {**staircase_doc(), "kind": kind}
        message = f"unknown kind {kind!r}"
        path = write_instance(tmp_path, doc)
        assert _run_file(path, {}) == (2, {"kind": "error", "error": message},
                                       None)
        assert main(["semigroup", path]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


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


def test_curve_product_growth_needs_its_own_samples(tmp_path, capsys):
    # genus 2 x P1 with fiber divisor H and base K_Y + 2 points: each factor
    # is decided at max_degree 3, but the quadratic product counts need 4
    # samples, so at 3 the product route cannot be estimated
    doc = {
        "schema_version": "1", "kind": "fibration",
        "body": {"variant": "curve_times_toric", "genus": 2,
                 "fiber": {"preset": "projective_space", "n": 1},
                 "fiber_divisor": [1, 1], "base_extra_degree": 2},
        "options": {"max_degree": 3},
    }
    path = write_instance(tmp_path, doc)
    assert main(["fibration", path, "--format", "json"]) == 4
    assert capsys.readouterr().err == (
        "cross-check mismatch: product growth not estimable\n")
    assert main(["fibration", path, "--format", "json", "--max-degree", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["kappa"] == 2


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


def test_fibration_csv_joins_rhs_as_text_does(capsys):
    # a product's terms join with *, a chain's with <=, a sum's with +, the
    # separators of the text rendering
    path = str(CORPUS / "fibration_dio_g2.json")
    assert main(["fibration", path, "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in
                capsys.readouterr().out.splitlines()[1:])
    assert rows["addti"] == "6,4*1,True,False"
    assert rows["jiangluo_chain"] == "2,2<=2,True,False"
    assert rows["112"] == "2,1+1,True,False"
    assert main(["fibration", path]) == 0
    text = capsys.readouterr().out
    assert "6 vs h0(base twist)=4 * rank=1" in text
    assert "2 <= kappa_sigma_hor=2 <= kappa_sigma=2" in text


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


def F(a):
    return {"preset": "hirzebruch", "a": a}


def P(n):
    return {"preset": "projective_space", "n": n}


@pytest.mark.parametrize("factors, coefficients, metric, kappa", [
    ([F(3), F(3)], [1] * 8, [], 4),
    ([F(2), F(4)], [1] * 8, [], 4),
    ([F(2), F(3), P(1)], [1] * 10, [], 5),
    ([F(3), P(3)], ["3/2", "1/2", -1, 2, -1, 1, "3/2", 0],
     [{"ray": 1, "weight": "1/2"}, {"ray": 4, "weight": "5/3"}], 5),
], ids=["F3xF3", "F2xF4", "F2xF3xP1", "F3xP3"])
def test_products_are_decided_at_the_default_bound(tmp_path, capsys, factors,
                                                   coefficients, metric, kappa):
    # The count period is read off the limit polytope, a product of the
    # factors' limit polytopes, so it is the lcm of the factors' periods.
    # A period that multiplied one factor's ray determinants by another's
    # (9 on F3 x F3, 8 on F2 x F4) left these undecided at 24, exit 4
    doc = {
        "schema_version": "1", "kind": "toric_kappa",
        "body": {"variety": {"preset": "product", "factors": factors},
                 "coefficients": coefficients, "metric": metric},
        "options": {"max_degree": 24},
    }
    assert main(["kappa", write_instance(tmp_path, doc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == kappa


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


def corpus_doc(name):
    return json.loads((CORPUS / name).read_text())


def p1xp1_fibration_doc(**body):
    return {
        "schema_version": "1", "kind": "fibration",
        "body": {"variant": "toric_product",
                 "fiber": {"preset": "projective_space", "n": 1},
                 "base": {"preset": "projective_space", "n": 1}, **body},
        "options": {"max_degree": 8},
    }


def test_out_of_range_ray_index_is_input_error(tmp_path, capsys):
    # P1 has rays 0 and 1; P1xP1 has rays 0..3, and dy_rays index the
    # base P1; a curve point named twice used to have its weights summed
    kappa = separation_doc()
    kappa["body"]["metric"] = [{"ray": 9, "weight": "1"}]
    curve = corpus_doc("fibration_dio_g2.json")
    curve["body"]["fiber_metric"] = [{"ray": 2, "weight": "2"}]
    twice = corpus_doc("fibration_dio_g2.json")
    twice["body"].update(base_extra_degree=6, base_metric=[
        {"point": "p", "weight": "3/2"}] * 2)
    cases = [
        ("kappa", kappa, "metric: ray index 9 out of range 0..1"),
        ("fibration", curve, "fiber_metric: ray index 2 out of range 0..1"),
        ("fibration", twice, "duplicate divisor id 'p'"),
        ("fibration", p1xp1_fibration_doc(dx_rays=[7]),
         "dx ray: ray index 7 out of range 0..3"),
        ("fibration", p1xp1_fibration_doc(dy_rays=[0, -1]),
         "dy ray: ray index -1 out of range 0..1"),
        ("fibration", p1xp1_fibration_doc(
            metric=[{"ray": 4, "weight": "3/2"}], dx_rays=[0]),
         "metric: ray index 4 out of range 0..3"),
    ]
    for command, doc, message in cases:
        assert main([command, write_instance(tmp_path, doc)]) == 2, message
        assert capsys.readouterr().err == f"input error: {message}\n"
    # the last index of each variety is accepted
    kappa["body"]["metric"] = [{"ray": 1, "weight": "1"}]
    assert main(["kappa", write_instance(tmp_path, kappa)]) == 0
    assert main(["fibration", write_instance(tmp_path, p1xp1_fibration_doc(
        dx_rays=[3], dy_rays=[1], checks=["chain"]))]) == 0


def test_product_with_hirzebruch_factor_has_canned_ample(tmp_path, capsys):
    # F2 x P1 and P1 x F2 used to exit 2 with "no canned ample"
    f2 = {"preset": "hirzebruch", "a": 2}
    p1 = {"preset": "projective_space", "n": 1}
    kappa = {"schema_version": "1", "kind": "toric_kappa",
             "body": {"variety": {"preset": "product", "factors": [f2, p1]},
                      "coefficients": [1, 1, 2, 1, 1, 1]},
             "options": {"max_degree": 12}}
    assert main(["kappa", write_instance(tmp_path, kappa), "--format", "json"]) == 0
    canned = json.loads(capsys.readouterr().out)
    kappa["body"]["ample"] = [1, 1, 2, 1, 1, 1]
    assert main(["kappa", write_instance(tmp_path, kappa), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == canned
    assert canned["kappa_sigma"] == 3
    fib = {"schema_version": "1", "kind": "fibration",
           "body": {"variant": "toric_product", "fiber": p1, "base": f2,
                    "divisor": [0, 1, 0, 1, 1, 1], "checks": ["chain", "addti"]},
           "options": {"max_degree": 10}}
    assert main(["fibration", write_instance(tmp_path, fib), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["summary"]["kappa_sigma_hor"] == 3 and rep["failed"] == 0


def test_twist_degree_below_least_accepted_is_input_error(tmp_path, capsys):
    # genus 2: curve classes are nonspecial from degree 2g - 1 = 3 on
    curve = corpus_doc("fibration_dio_g2.json")
    toric = p1xp1_fibration_doc(checks=["addti"])
    cases = [(curve, -3, 3), (curve, 2, 3), (toric, -3, 1), (toric, 0, 1)]
    for doc, twist, least in cases:
        doc["body"]["twist_degree"] = twist
        assert main(["fibration", write_instance(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"input error: twist_degree: expected at least {least}, "
            f"got {twist}\n")
    # the least accepted value itself runs, and so does the default
    for doc, twist in ((curve, 3), (toric, 1)):
        doc["body"]["twist_degree"] = twist
        assert main(["fibration", write_instance(tmp_path, doc),
                     "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        addti = [v for v in rep["verdicts"] if v["check"] == "addti"]
        assert addti and addti[0]["holds"]
    del curve["body"]["twist_degree"]
    assert main(["fibration", write_instance(tmp_path, curve)]) == 0


def test_malformed_semigroup_shape_is_input_error(tmp_path, capsys):
    # a wrong shape or entry type is an input error naming the field, not a
    # TypeError, AttributeError or Python's own int() message
    cases = [
        ({"levels": {"1": [5]}}, "levels[1]: expected a list of integers, got 5"),
        ({"generators": [7]}, "generators: expected a list of integers, got 7"),
        ({"generators": 7}, "generators: expected a list of integer lists, got 7"),
        ({"levels": [[0]]},
         "levels: expected an object from degree to point list, got [[0]]"),
        ({"levels": {"a": [[0]]}}, "levels: expected integer degree keys, got 'a'"),
        ({"generators": [[0, 1], [2.5, 1]]},
         "generators entry: expected integer, got 2.5"),
        ({"levels": {"1": [[0], ["1/2"]]}},
         "levels[1] entry: expected integer, got '1/2'"),
        ({"levels": {"1": [[0], [True]]}},
         "levels[1] entry: expected integer, got True"),
        ({"levels": {"1": [[0]], "01": [[1]]}},
         "levels: keys '1' and '01' both name degree 1"),
    ]
    for body, message in cases:
        doc = staircase_doc()
        doc["body"] = {"ambient_rank": 1, **body}
        assert main(["semigroup", write_instance(tmp_path, doc)]) == 2, body
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_closed_under_addition_must_be_a_boolean(tmp_path, capsys):
    # A_1 + A_1 escapes A_2, so a truthy string used to run the closure
    # check and fail it; a non-boolean is now an input error naming the field
    levels = {"1": [[0], [1]], "2": [[0]]}
    for value in ("no", 0, None):
        doc = staircase_doc()
        doc["body"] = {"ambient_rank": 1, "levels": levels,
                       "closed_under_addition": value}
        assert main(["semigroup", write_instance(tmp_path, doc)]) == 2, value
        assert capsys.readouterr().err == (
            "input error: closed_under_addition: expected true or false, "
            f"got {value!r}\n")
    doc["body"]["closed_under_addition"] = False
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 0
    doc["body"]["closed_under_addition"] = True
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 2
    assert "declared closure fails" in capsys.readouterr().err


def test_fractional_level_key_is_input_error(tmp_path, capsys):
    doc = staircase_doc()
    doc["body"] = {"ambient_rank": 1, "levels": {"1.5": [[0]], "2": [[0]]}}
    assert main(["semigroup", write_instance(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "input error: levels: expected integer degree keys, got '1.5'\n")


def scan_doc(**body):
    return {"schema_version": "1", "kind": "multiplier_scan",
            "body": {"k_max": 10, **body}, "options": {}}


def test_vacuous_scan_options_are_input_errors(tmp_path):
    # each of these used to run a scan of no pair: exit 0 with checked 0
    cases = [({"k_max": -5}, "k_max: expected positive integer, got -5"),
             ({"k_max": 0}, "k_max: expected positive integer, got 0"),
             ({"max_den": 0}, "max_den: expected positive integer, got 0"),
             ({"max_value": -1}, "max_value: expected nonnegative integer, got -1"),
             ({"mu_grid": []}, "mu_grid: expected a nonempty list, got []"),
             # next to a grid the two fields are unused, but still checked
             ({"mu_grid": ["3/2"], "max_den": 0},
              "max_den: expected positive integer, got 0"),
             ({"mu_grid": ["3/2"], "max_value": -7},
              "max_value: expected nonnegative integer, got -7")]
    for body, message in cases:
        with pytest.raises(ValidationError) as exc:
            run_instance(scan_doc(**body))
        assert str(exc.value) == message
        path = write_instance(tmp_path, scan_doc(**body))
        assert _run_file(path, {}) == (2, {"kind": "error", "error": message},
                                       None)
    # the least values that remain scan one weight at one pair
    code, report, _ = run_instance(scan_doc(k_max=1, max_value=0, max_den=1))
    assert (code, report["grid_size"], report["checked"]) == (0, 1, 1)


def test_non_list_field_is_input_error(tmp_path, capsys):
    # a scalar or an object where the schema wants a list used to escape as
    # a TypeError traceback; each is an input error naming the field
    kappa = separation_doc()
    curve = corpus_doc("fibration_dio_g2.json")
    cases = [
        ("kappa", {**kappa, "body": {**kappa["body"], "coefficients": 5}},
         "coefficients", 5),
        ("kappa", {**kappa, "body": {**kappa["body"], "ample": 3}}, "ample", 3),
        ("fibration", p1xp1_fibration_doc(divisor={"a": 1}), "divisor", {"a": 1}),
        ("fibration", {**curve, "body": {**curve["body"], "fiber_divisor": "1/2"}},
         "fiber_divisor", "1/2"),
        ("fibration", {**curve, "body": {**curve["body"], "base_metric": 3}},
         "base_metric", 3),
        ("fibration", {**curve, "body": {**curve["body"], "checks": 5}},
         "checks", 5),
        ("fibration", p1xp1_fibration_doc(dx_rays=3), "dx_rays", 3),
        ("fibration", p1xp1_fibration_doc(dy_rays=None), "dy_rays", None),
        ("verify-suite", scan_doc(mu_grid="3/2"), "mu_grid", "3/2"),
    ]
    for command, doc, field, value in cases:
        message = f"{field}: expected a list, got {value!r}"
        if command == "verify-suite":
            # multiplier_scan files run only as a suite, whose rows carry
            # the exit code; the message is the file's error report
            (tmp_path / "suite").mkdir(exist_ok=True)
            path = write_instance(tmp_path / "suite", doc)
            assert _run_file(path, {}) == (2, {"kind": "error", "error": message},
                                           None)
            assert main(["verify-suite", str(tmp_path / "suite"),
                         "--format", "json"]) == 1, message
            rep = json.loads(capsys.readouterr().out)
            assert rep["results"] == [
                {"file": "inst.json", "kind": "error", "exit": 2}]
            continue
        assert main([command, write_instance(tmp_path, doc)]) == 2, message
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_verify_suite_reports_every_row_past_a_non_list_field(tmp_path, capsys):
    kappa = separation_doc()
    kappa["body"]["coefficients"] = 5
    write_instance(tmp_path, kappa, "bad.json")
    write_instance(tmp_path, scan_doc(mu_grid=["3/2"]), "good.json")
    assert main(["verify-suite", str(tmp_path), "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == [
        {"file": "bad.json", "kind": "error", "exit": 2},
        {"file": "good.json", "kind": "multiplier_scan", "exit": 0}]


def test_repeated_key_is_input_error(tmp_path, capsys):
    # json.loads used to keep the last of two equal keys without a word:
    # the kappa file ran on [0, 0] and exited 0, the semigroup file dropped
    # its first A_1 and reported a closure fault
    kappa = json.dumps(separation_doc()).replace(
        '"coefficients": [0, 0]', '"coefficients": [1, 1], "coefficients": [0, 0]')
    semigroup = ('{"schema_version": "1", "kind": "semigroup", "body": '
                 '{"ambient_rank": 1, "levels": {"1": [[0]], "1": [[0], [1]], '
                 '"2": [[0], [1], [2]]}}, "options": {"max_degree": 4}}')
    fibration = (CORPUS / "fibration_dio_g2.json").read_text().replace(
        '"genus": 2,', '"genus": 2, "genus": 3,')
    cases = [("kappa", kappa, "coefficients"), ("semigroup", semigroup, "1"),
             ("fibration", fibration, "genus")]
    suite = tmp_path / "suite"
    suite.mkdir()
    for command, text, key in cases:
        path = suite / f"{command}.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2, key
        assert capsys.readouterr().err == f"input error: repeated key {key!r}\n"
    write_instance(suite, scan_doc(mu_grid=["3/2"]), "scan.json")
    assert main(["verify-suite", str(suite), "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == [
        {"file": f"{command}.json", "kind": "error", "exit": 2}
        for command in ("fibration", "kappa")] + [
        {"file": "scan.json", "kind": "multiplier_scan", "exit": 0},
        {"file": "semigroup.json", "kind": "error", "exit": 2}]


def test_unwritable_output_path_is_input_error(tmp_path, capsys):
    # a missing directory used to end in a traceback and exit 1, the code
    # of a failed verdict
    kappa = write_instance(tmp_path, separation_doc())
    missing = tmp_path / "missing"
    runs = [["kappa", kappa, "--out", str(missing / "report.txt")],
            ["kappa", kappa, "--export-polytope", str(missing / "limit.off")],
            ["verify-suite", str(CORPUS), "--out", str(missing / "suite.txt")]]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: {argv[-1]}: No such file or directory\n"), argv
    assert not missing.exists()


def kappa_doc(**body):
    doc = separation_doc()
    doc["body"] = {**doc["body"], **body}
    return doc


def fibration_doc(body):
    return {"schema_version": "1", "kind": "fibration", "body": body,
            "options": {"max_degree": 8}}


P1_SPEC = {"preset": "projective_space", "n": 1}


@pytest.mark.parametrize("command, doc, flags, stderr", [
    ("kappa", kappa_doc(variety=3), [], "input error: variety must be a JSON object"),
    ("kappa", {**separation_doc(), "body": {"variety": P1_SPEC}}, [],
     "input error: body misses fields: ['coefficients']"),
    ("kappa", kappa_doc(coefficients=[True, 0]), [],
     "input error: coefficient: expected integer or 'p/q' string, got True"),
    ("kappa", kappa_doc(metric=[{"ray": 0, "weight": 0.5}]), [],
     "input error: metric: expected integer or 'p/q' string, got 0.5"),
    ("kappa", kappa_doc(coefficients=["1/0", 0]), [],
     "input error: coefficient: expected integer or 'p/q' string, got '1/0'"),
    ("kappa", kappa_doc(variety={"preset": "projective_space"}), [],
     "input error: variety: projective_space needs n"),
    ("kappa", kappa_doc(variety={"preset": "hirzebruch"}), [],
     "input error: variety: hirzebruch needs a"),
    ("kappa", kappa_doc(variety={"preset": "product", "factors": [P1_SPEC]}), [],
     "input error: variety: product needs >= 2 factors"),
    ("kappa", kappa_doc(variety={"preset": "grassmannian"}), [],
     "input error: variety: unknown preset 'grassmannian'"),
    ("kappa", kappa_doc(metric={"ray": 0, "weight": "1"}), [],
     "input error: metric must be a list"),
    ("kappa", kappa_doc(coefficients=[0, 0, 0]), [],
     "input error: coefficient count does not match ray count"),
    ("semigroup", staircase_doc() | {"body": {"ambient_rank": 1}}, [],
     "input error: body needs generators or levels"),
    ("fibration", fibration_doc({"variant": "toric_product", "fiber": P1_SPEC}),
     [], "input error: toric_product needs fiber and base"),
    ("fibration", fibration_doc({"variant": "hirzebruch"}), [],
     "input error: hirzebruch variant needs a"),
    ("fibration", fibration_doc({}), [], "input error: body needs a variant"),
    ("fibration", fibration_doc({"variant": "blowup"}), [],
     "input error: unknown variant 'blowup'"),
    ("fibration", p1xp1_fibration_doc(), ["--export-polytope", "out.off"],
     "polytope export not available for this kind"),
])
def test_malformed_file_exits_2_with_one_message(tmp_path, capsys, monkeypatch,
                                                 command, doc, flags, stderr):
    monkeypatch.chdir(tmp_path)  # where an export, wrongly made, would land
    assert main([command, write_instance(tmp_path, doc), *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr + "\n")
    assert not (tmp_path / "out.off").exists()
