"""CLI subcommands, exit codes, and report determinism."""

import json
import re
import sys

import pytest

from algcert.cli import run_cli


def _run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _build(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, err = _run(capsys, "build", *argv, "-o", str(path))
    assert code == 0, err
    return str(path)


def test_build_then_validate(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, out, _ = _run(capsys, "validate", path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["validate"]["ok"]
    assert report["input_sha256"]
    assert report["command"][0] == "validate"


def test_certify_thm2_pass(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    code, out, _ = _run(capsys, "certify", path, "--claim", "thm2", "--seed", "7")
    assert code == 0
    cert = json.loads(out)["result"]["certificates"][0]
    assert cert["verdict"] == "pass"
    assert cert["trace"]["final_rank"] == 3
    assert cert["seed"] == 7


def test_certify_example1_thm1_exit3(capsys, tmp_path):
    path = _build(
        capsys, tmp_path, "ex1.json", "--kind", "triangular_example1", "--truncation", "8"
    )
    code, out, _ = _run(capsys, "certify", path, "--claim", "thm1")
    assert code == 3
    cert = json.loads(out)["result"]["certificates"][0]
    assert cert["verdict"] == "hypothesis-not-met"
    assert "R(1-e)R=R" in cert["detail"]["failed_hypotheses"]


def test_certify_example2_thm2_exit3(capsys, tmp_path):
    path = _build(
        capsys, tmp_path, "ex2.json", "--kind", "m2_example2", "--truncation", "4"
    )
    code, out, _ = _run(capsys, "certify", path, "--claim", "thm2")
    assert code == 3
    cert = json.loads(out)["result"]["certificates"][0]
    assert "R(1-e-e*)R=R" in cert["detail"]["failed_hypotheses"]


def test_certify_stagnation_fail_exit2(capsys, tmp_path):
    # Two generic generators reach [M_2, M_2], so stagnation fails: exit 2.
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, out, _ = _run(
        capsys, "certify", path, "--claim", "stagnation",
        "--trials", "10", "--max-gen", "2", "--seed", "3",
    )
    assert code == 2
    assert json.loads(out)["result"]["certificates"][0]["verdict"] == "fail"


def test_certify_stagnation_pass(capsys, tmp_path):
    path = _build(
        capsys, tmp_path, "ex1.json", "--kind", "triangular_example1", "--truncation", "8"
    )
    code, out, _ = _run(
        capsys, "certify", path, "--claim", "stagnation",
        "--trials", "50", "--max-gen", "5", "--seed", "11",
    )
    assert code == 0
    cert = json.loads(out)["result"]["certificates"][0]
    assert cert["detail"]["bracket_abelian"] is True
    assert cert["detail"]["max_rank_achieved"] <= 5


def test_closure_subcommand(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, out, _ = _run(capsys, "closure", path, "--structure", "lie", "--gens", "E12,E21")
    assert code == 0
    payload = json.loads(out)["result"]["closure"]
    assert payload["trace"]["final_rank"] == 3
    assert payload["final"]["basis"] == ["E11 - E22", "E12", "E21"]


def test_oracle_subcommand(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, out, _ = _run(
        capsys, "oracle", path, "--structure", "associative",
        "--gens", "E12,E21", "--max-len", "2",
    )
    assert code == 0
    assert json.loads(out)["result"]["oracle"]["rank"] == 4


def test_oracle_pair_sides_inferred(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, out, _ = _run(
        capsys, "oracle", path, "--structure", "assoc-pair",
        "--gens", "E12,E21", "--max-len", "3",
    )
    assert code == 0
    payload = json.loads(out)["result"]["oracle"]
    assert payload["minus"]["rank"] == 1 and payload["plus"]["rank"] == 1


def test_decompose_subcommand(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    code, out, _ = _run(capsys, "decompose", path)
    assert code == 0
    payload = json.loads(out)["result"]["decompose"]
    assert payload["grading"]["dims"] == [1, 2, 3, 2, 1]
    assert payload["grading"]["multiplicative"] is True
    assert payload["peirce"]["eRe"]["rank"] == 1


def test_validate_violations_exit2(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    data = json.loads(open(path).read())
    data["mul"][0][3] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "validate", str(bad))
    assert code == 2
    assert not json.loads(out)["result"]["validate"]["ok"]


def test_malformed_file_exit1(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x"}')
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "missing fields" in err


def test_pointered_parse_error(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    data = json.loads(open(path).read())
    data["mul"][2][0] = 99
    bad = tmp_path / "ptr.json"
    bad.write_text(json.dumps(data))
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "$.mul[2]" in err


def test_vector_scalar_errors_point_at_the_coordinate(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2f.json", "--kind", "flip_matrix_n", "--n", "2")
    data = json.loads(open(path).read())
    for key, name, at, bad in (
        ("idempotents", "e", 0, "x"),
        ("generators", "E21", 2, "1.5"),
        ("generators", "E22", 3, "2/0"),
        ("unit", None, 3, ""),
    ):
        d = json.loads(json.dumps(data))
        vec = d[key] if name is None else d[key][name]
        vec[at] = bad
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(d))
        code, out, err = _run(capsys, "validate", str(bad_path))
        pointer = f"$.{key}[{at}]" if name is None else f"$.{key}.{name}[{at}]"
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {pointer}: "), err


def test_unknown_flag_exit1(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, _, err = _run(capsys, "certify", path, "--claim", "thm1", "--bogus")
    assert code == 1


def test_missing_file_exit1(capsys):
    code, _, err = _run(capsys, "validate", "/nonexistent/alg.json")
    assert code == 1


def test_unknown_gen_name_exit1(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    code, _, err = _run(capsys, "closure", path, "--structure", "lie", "--gens", "Z99")
    assert code == 1
    assert "Z99" in err


def test_budget_env_exit1(capsys, tmp_path, monkeypatch):
    path = _build(capsys, tmp_path, "m3.json", "--kind", "matrix_n", "--n", "3")
    monkeypatch.setenv("ALGCERT_MAX_WORDS", "3")
    code, _, err = _run(
        capsys, "oracle", path, "--structure", "lie", "--gens", "E12,E21,E23", "--max-len", "4"
    )
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("raw", [
    "0", "-5", "ten", "1_0", " 7 ", "+4", "\u0663",
    pytest.param("9" * (sys.get_int_max_str_digits() + 1), id="past-the-digit-limit"),
])
def test_budget_env_must_be_positive(capsys, tmp_path, monkeypatch, raw):
    # A budget below one is an input error, not a budget exceeded by the
    # first word. The budget is ASCII digits only: int() would read "1_0",
    # " 7 ", "+4" and the Arabic-Indic digit three, and refuse a number past
    # the interpreter's int-string digit limit with a ValueError.
    path = _build(capsys, tmp_path, "m3.json", "--kind", "matrix_n", "--n", "3")
    monkeypatch.setenv("ALGCERT_MAX_WORDS", raw)
    code, out, err = _run(
        capsys, "oracle", path, "--structure", "lie", "--gens", "E12,E21", "--max-len", "2"
    )
    assert code == 1
    assert out == ""
    assert f"ALGCERT_MAX_WORDS must be a positive integer, got {raw!r}" in err
    assert "budget exceeded" not in err and "Traceback" not in err


def test_report_determinism(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    _, out1, _ = _run(capsys, "certify", path, "--claim", "thm2", "--seed", "7")
    _, out2, _ = _run(capsys, "certify", path, "--claim", "thm2", "--seed", "7")
    strip = lambda s: re.sub(r'"wall_time_s":[0-9.eE+-]+', '"wall_time_s":0', s)
    assert strip(out1) == strip(out2)


def test_one_parser_serves_every_call(capsys, tmp_path):
    # run_cli builds its parser once per process. Usage errors, other
    # subcommands and flags given to one call leave the next call's
    # defaults and reports as they would be with a fresh parser.
    path = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    strip = lambda s: re.sub(r'"wall_time_s":[0-9.eE+-]+', '"wall_time_s":0', s)
    certify = ("certify", path, "--claim", "thm2", "--seed", "7")
    jobs = [
        (certify, 0),
        (("certify", path, "--claim", "thm2", "--trials", "0"), 1),
        (("certify", path, "--claim", "bogus"), 1),
        (("validate", path), 0),
        (("decompose", path), 0),
        (("certify", path, "--claim", "thm2"), 0),
        (certify, 0),
        (("validate", path), 0),
        (("decompose", path), 0),
    ]
    reports = []
    for argv, expected in jobs:
        code, out, err = _run(capsys, *argv)
        assert code == expected, (argv, err)
        assert "Traceback" not in err
        if code == 1:
            assert out == "" and err.startswith("error: ")
        reports.append(strip(out))
    assert "must be at least 1" in _run(capsys, *jobs[1][0])[2]
    assert "invalid choice: 'bogus'" in _run(capsys, *jobs[2][0])[2]
    assert reports[6] == reports[0]
    assert reports[7:] == reports[3:5]
    # The flags of the first certify do not leak into a call without them.
    assert json.loads(reports[5])["result"]["certificates"][0]["seed"] == 0
    assert json.loads(reports[0])["result"]["certificates"][0]["seed"] == 7


def test_report_output_file(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    dest = tmp_path / "report.json"
    code, out, _ = _run(capsys, "validate", path, "-o", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["result"]["validate"]["ok"]


def test_exit_code_contract_per_subcommand(capsys, tmp_path):
    # build: 0 on success, 1 on bad input
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    assert _run(capsys, "build", "--kind", "matrix_n", "-o", str(tmp_path / "x.json"))[0] == 1
    # validate: 0 clean (covered), 2 violations (covered), 1 parse error (covered)
    # closure/oracle/decompose: 0 success
    assert _run(capsys, "decompose", path)[0] == 0
    # certify: 0 pass
    assert _run(capsys, "certify", path, "--claim", "lemma1")[0] == 0
    # certify: 3 hypothesis-not-met (lemma8 on a non-symplectic instance)
    assert _run(capsys, "certify", path, "--claim", "lemma8")[0] == 3


def test_all_claims_run_on_suitable_instances(capsys, tmp_path):
    m3f = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    for claim in ("lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6",
                  "lemma7", "thm1", "thm2"):
        code, out, err = _run(capsys, "certify", m3f, "--claim", claim, "--seed", "1")
        assert code == 0, (claim, err)
    sym = _build(capsys, tmp_path, "sym.json", "--kind", "symplectic_m2")
    for claim, expected in (("lemma8", 0), ("lemma9", 0), ("lemma4", 3)):
        code, _, _ = _run(capsys, "certify", sym, "--claim", claim, "--seed", "1")
        assert code == expected


def test_every_claim_checks_the_axioms_first(capsys, tmp_path):
    # M2 flip with b0*b0 = 2*b0 is not associative: every claim must refuse
    # it with exit 1 and no report, whatever its own hypotheses say.
    path = _build(capsys, tmp_path, "m2f.json", "--kind", "matrix_n", "--n", "2",
                  "--involution", "flip")
    with open(path) as fh:
        d = json.load(fh)
    d["mul"][0][3] = "2"
    with open(path, "w") as fh:
        json.dump(d, fh)
    claims = ("lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "lemma7",
              "thm1", "thm2", "lemma8", "lemma9", "stagnation")
    for claim in claims:
        code, out, err = _run(capsys, "certify", path, "--claim", claim,
                              "--seed", "3", "--trials", "8")
        assert code == 1, claim
        assert "presentation violates associativity" in err, claim
        assert out == "", claim


def test_zero_denominator_is_a_format_error(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    with open(path) as fh:
        d = json.load(fh)
    d["mul"][0][3] = "1/0"
    with open(path, "w") as fh:
        json.dump(d, fh)
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.mul[0][3]:")


def test_prime_above_the_primality_bound_exit1(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    with open(path) as fh:
        d = json.load(fh)
    d["field"] = "Fp:3317044064679887385961981"
    with open(path, "w") as fh:
        json.dump(d, fh)
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.field:")
    assert "3317044064679887385961981" in err


def test_certify_example2_thm1_and_lemma3_within_budget(capsys, tmp_path):
    # Both stop word enumeration at the component rank; enumerating every
    # monomial exceeds the default budget of 200000 words.
    path = _build(
        capsys, tmp_path, "ex2.json", "--kind", "m2_example2", "--truncation", "3"
    )
    for claim in ("thm1", "lemma3"):
        code, out, err = _run(capsys, "certify", path, "--claim", claim)
        assert code == 0, (claim, err)
        assert json.loads(out)["result"]["certificates"][0]["verdict"] == "pass"


def test_non_utf8_file_exit1(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "é"}'.encode("latin-1"))
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: $: file is not UTF-8")


def test_json_nested_past_the_recursion_limit_exit1(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000)
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: $: invalid JSON")


def test_output_into_missing_directory_exit1(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2f.json", "--kind", "flip_matrix_n", "--n", "2")
    dest = str(tmp_path / "missing" / "out.json")
    for argv in (
        ("build", "--kind", "matrix_n", "--n", "2"),
        ("validate", path),
        ("decompose", path),
        ("closure", path, "--structure", "lie", "--gens", "E12,E21"),
        ("oracle", path, "--structure", "lie", "--gens", "E12,E21", "--max-len", "2"),
        ("certify", path, "--claim", "lemma1"),
    ):
        code, out, err = _run(capsys, *argv, "-o", dest)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error: ") and "missing" in err, argv
    assert not (tmp_path / "missing").exists()


def test_booleans_are_not_integers(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    with open(path) as fh:
        d = json.load(fh)
    d["dim"], d["basis"] = True, d["basis"][:1]
    with open(path, "w") as fh:
        json.dump(d, fh)
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.dim:")


def test_integer_flags_below_their_minimum_exit1(capsys, tmp_path):
    # --max-gen 0 and --max-len 0 used to end in a ValueError traceback, and
    # --trials 0 in a vacuous pass after no trials.
    path = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    certify = ("certify", path, "--claim")
    oracle = ("oracle", path, "--structure", "lie", "--gens", "E12,E21")
    for argv in (
        (*certify, "stagnation", "--max-gen", "0"),
        (*certify, "stagnation", "--trials", "0"),
        (*certify, "stagnation", "--trials", "-3"),
        (*certify, "lemma7", "--trials", "0"),
        (*certify, "lemma9", "--trials", "-1"),
        (*certify, "lemma2", "--cap", "-1"),
        (*oracle, "--max-len", "0"),
        (*oracle, "--max-len", "-2"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error: ") and "must be at least" in err, argv
        assert "Traceback" not in err, argv
    code, _, err = _run(capsys, *certify, "stagnation", "--trials", "x")
    assert code == 1
    assert "invalid int value: 'x'" in err


def test_integer_flags_at_their_minimum_run(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m3f.json", "--kind", "flip_matrix_n", "--n", "3")
    for argv in (
        ("certify", path, "--claim", "stagnation", "--trials", "1", "--max-gen", "1"),
        ("certify", path, "--claim", "lemma7", "--trials", "1"),
        ("oracle", path, "--structure", "lie", "--gens", "E12,E21", "--max-len", "1"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code in (0, 2, 3), (argv, err)
        assert json.loads(out)["result"], argv
    # --cap 0 allows only the empty words; lemma 2 needs longer ones and says so.
    code, out, err = _run(capsys, "certify", path, "--claim", "lemma2", "--cap", "0")
    assert code == 1
    assert "no decomposition found with word length <= 0" in err


def _huge():
    """A digit string one digit past the interpreter's limit on int-string
    conversions."""
    return "7" * (sys.get_int_max_str_digits() + 1)


def _edited(capsys, tmp_path, field, edit):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2",
                  "--field", field)
    with open(path) as fh:
        d = json.load(fh)
    edit(d)
    with open(path, "w") as fh:
        json.dump(d, fh)
    return path


def test_huge_rational_scalar_is_a_format_error(capsys, tmp_path):
    for scalar in (_huge(), "-" + _huge(), "1/" + _huge()):
        path = _edited(capsys, tmp_path, "Q", lambda d: d["mul"][0].__setitem__(3, scalar))
        code, out, err = _run(capsys, "validate", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: $.mul[0][3]: number too long")


def test_huge_prime_field_scalar_is_a_format_error(capsys, tmp_path):
    path = _edited(capsys, tmp_path, "Fp:101",
                   lambda d: d["idempotents"]["e"].__setitem__(1, _huge()))
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.idempotents.e[1]: number too long")


def test_huge_field_modulus_is_a_format_error(capsys, tmp_path):
    path = _edited(capsys, tmp_path, "Q", lambda d: d.__setitem__("field", "Fp:" + _huge()))
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.field: number too long")


@pytest.mark.parametrize("field,scalar", [
    ("Q", "1\n"), ("Q", "\u0663"), ("Q", "3/\u0664"), ("Fp:101", "1\n"), ("Fp:101", "\u0663"),
])
def test_non_ascii_or_newline_scalar_is_a_format_error(capsys, tmp_path, field, scalar):
    # int() reads Unicode digits, and "$" matches before a final newline:
    # the grammar takes neither.
    path = _edited(capsys, tmp_path, field, lambda d: d["mul"][0].__setitem__(3, scalar))
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.mul[0][3]: not a")
    assert "Traceback" not in err


@pytest.mark.parametrize("tag", ["Fp:101\n", "Fp:\u0661\u0660\u0661"])
def test_non_ascii_or_newline_field_tag_is_a_format_error(capsys, tmp_path, tag):
    path = _edited(capsys, tmp_path, "Q", lambda d: d.__setitem__("field", tag))
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.field: bad prime field tag")
    assert "Traceback" not in err


def test_huge_json_integer_is_invalid_json(capsys, tmp_path):
    path = _build(capsys, tmp_path, "m2.json", "--kind", "matrix_n", "--n", "2")
    with open(path) as fh:
        text = fh.read()
    assert '"dim":4' in text
    with open(path, "w") as fh:
        fh.write(text.replace('"dim":4', '"dim":' + _huge()))
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: $: invalid JSON:")
