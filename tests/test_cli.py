import io
import json
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator

import surfgroups
from surfgroups import dims, embeddings, klein, torusbraid
from surfgroups import cli
from surfgroups.cli import ENGINES, EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, build_parser, main
from surfgroups.words import Alphabet, HomReport

from conftest import deadline

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schemas"
ENVELOPE = json.loads((SCHEMA_DIR / "envelope.schema.json").read_text())
COMMANDS = json.loads((SCHEMA_DIR / "commands.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    envelope = json.loads(out)
    Draft202012Validator(ENVELOPE).validate(envelope)
    return code, envelope


# More digits than the interpreter converts to int by default (4300).
LONG_DIGITS = "9" * 5000

# phi1 on the Klein bottle group, as a hom-check spec.
HOM_SPEC = {
    "alphabet": ["al", "be"],
    "relators": ["al*be*al*be^-1"],
    "target": "b2t",
    "images": {"al": "a^-1*x^2", "be": "y*s^-1"},
}

# Input files that hold no JSON value, each with a phrase of its diagnostic.
# The nesting is deeper than the JSON reader recurses.
UNREADABLE_JSON = [
    pytest.param(b"[" * 990 + b"]" * 990, "is nested too deeply", id="nested-990-deep"),
    pytest.param(b'[[1, "\xff"]]', "can't decode byte 0xff", id="bad-utf-8"),
    pytest.param(b"[[1, 2], [3", "Expecting ',' delimiter", id="truncated"),
]


def validate_data(data, command_def):
    schema = dict(COMMANDS["$defs"][command_def])
    schema["$defs"] = COMMANDS["$defs"]
    Draft202012Validator(schema).validate(data)


class TestNormalForms:
    def test_b2t_sigma_squared(self, capsys):
        code, env = run_json(capsys, "nf", "--group", "b2t", "--word", "s*s")
        assert code == EXIT_OK
        validate_data(env["data"], "nf")
        elem = env["data"]["element"]
        assert elem["free_part"] == "x*y^-1*x^-1*y"
        assert (elem["m"], elem["n"], elem["eps"]) == (0, 0, 0)

    def test_klein_round_trip(self, capsys):
        code, env = run_json(capsys, "nf", "--group", "klein", "--word", "be*al*be")
        assert code == EXIT_OK
        word = env["data"]["element"]["word"]
        code2, env2 = run_json(capsys, "nf", "--group", "klein", "--word", word)
        assert env2["data"]["element"] == env["data"]["element"]

    def test_b2t_round_trip(self, capsys):
        code, env = run_json(capsys, "nf", "--group", "b2t", "--word", "s*x^2*a^-1*s*y")
        word = env["data"]["element"]["word"]
        _, env2 = run_json(capsys, "nf", "--group", "b2t", "--word", word)
        assert env2["data"]["element"] == env["data"]["element"]

    def test_mul_and_inv(self, capsys):
        code, env = run_json(capsys, "mul", "--group", "klein", "al*be", "be^-1*al^-1")
        assert env["data"]["element"]["word"] == "1"
        code, env = run_json(capsys, "inv", "--group", "b2t", "--word", "s")
        assert env["data"]["element"]["word"] == "y^-1*x*y*x^-1*s"

    def test_parse_error_exit_code(self, capsys):
        code = main(["nf", "--group", "klein", "--word", "al**be"])
        assert code == EXIT_PARSE

    def test_usage_error_with_json_prints_an_envelope(self, capsys):
        code, env = run_json(capsys, "nf", "--group", "klein")
        assert code == EXIT_PARSE
        assert env["status"] == "error" and env["data"] == {}
        assert "--word" in env["diagnostics"][0]

    def test_usage_error_without_json_keeps_argparse_text(self, capsys):
        assert main(["nf", "--group", "klein"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: surfgroups nf ")
        assert captured.err.endswith(
            "\nsurfgroups nf: error: the following arguments are required: --word\n"
        )
        assert main(["nf", "--help"]) == EXIT_OK

    def test_unknown_generator_names_column(self, capsys):
        code = main(["nf", "--group", "klein", "--word", "al*qq", "--json"])
        assert code == EXIT_PARSE
        env = json.loads(capsys.readouterr().out)
        assert env["status"] == "error"
        assert "qq" in env["diagnostics"][0] and "column 4" in env["diagnostics"][0]


class TestEmbeddingCommands:
    def test_phi1_beta_squared(self, capsys):
        code, env = run_json(capsys, "phi1", "--word", "be^2")
        assert code == EXIT_OK
        validate_data(env["data"], "phi1")
        assert env["data"]["image"]["word"] == "b"

    def test_phi1_closed_form_flag(self, capsys):
        _, env = run_json(capsys, "phi1", "--word", "al^2*be^4", "--closed-form")
        assert env["data"]["closed_form_agrees"] is True

    def test_phi1_closed_form_agrees_on_huge_exponents(self, capsys):
        word = f"be^3*al^{10**30}*be^-{10**30 + 1}"
        with deadline(2.0):
            _, env = run_json(capsys, "phi1", "--word", word, "--closed-form")
        assert env["data"]["closed_form_agrees"] is True

    def test_phi1_closed_form_is_checked_against_the_generator_images(self, capsys, monkeypatch):
        # phi1 is the closed form, so a broken closed form breaks both; the
        # flag must still see it.
        monkeypatch.setattr(embeddings, "phi1_closed_form", lambda r, s: torusbraid.IDENTITY)
        _, env = run_json(capsys, "phi1", "--word", "al^2*be^4", "--closed-form")
        assert env["data"]["image"]["word"] == "1"
        assert env["data"]["closed_form_agrees"] is False

    def test_ball(self, capsys):
        code, env = run_json(capsys, "ball", "--radius", "3")
        assert code == EXIT_OK
        validate_data(env["data"], "ball")
        assert env["data"]["count"] == 49 and env["data"]["passed"]

    def test_mcgk_table(self, capsys):
        code, env = run_json(capsys, "mcgk", "--table")
        assert code == EXIT_OK
        validate_data(env["data"], "mcgk")
        assert sorted(env["data"]["kernel"]) == ["E1", "E2"]
        assert env["data"]["compose_table"]["E3*E3"] == "E1"

    def test_ball_refuses_radius_over_bound(self, capsys):
        code, env = run_json(capsys, "ball", "--radius", "65")
        assert code == EXIT_DOMAIN
        assert "exceeds configured bound 64" in env["diagnostics"][0]

    def test_lift(self, capsys):
        code, env = run_json(capsys, "lift", "--points", "1/4,0;1/3,1/2")
        assert code == EXIT_OK
        validate_data(env["data"], "lift")
        assert env["data"]["count"] == 4

    def test_lift_rejects_out_of_domain(self, capsys):
        code = main(["lift", "--points", "3/4,0"])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "points, data",
        [
            (
                "1/4,0;1/3,1/2",
                {
                    "input": [["1/4", "0"], ["1/3", "1/2"]],
                    "lifted": [["1/4", "0"], ["1/3", "1/2"], ["3/4", "0"], ["5/6", "1/2"]],
                    "count": 4,
                },
            ),
            ("0.25,0", {"input": [["1/4", "0"]], "lifted": [["1/4", "0"], ["3/4", "0"]], "count": 2}),
        ],
    )
    def test_lift_accepts_fractions_and_decimals(self, capsys, points, data):
        code, env = run_json(capsys, "lift", "--points", points)
        assert code == EXIT_OK
        assert env["data"] == data

    @pytest.mark.parametrize("points", [".5,0", "-1/4,0"])
    def test_lift_out_of_domain_forms_exit_domain(self, points):
        assert main(["lift", f"--points={points}"]) == EXIT_DOMAIN

    @pytest.mark.parametrize("points", ["1/4,0;1/4", "1/4,0;"])
    def test_lift_parse_error_names_column_of_chunk(self, capsys, points):
        code, env = run_json(capsys, "lift", "--points", points)
        assert code == EXIT_PARSE
        assert "at column 7" in env["diagnostics"][0]


class TestAlgebraCommands:
    def test_snf(self, capsys, tmp_path):
        mat = tmp_path / "mat.json"
        mat.write_text("[[2, 0], [0, 3]]")
        with deadline(2.0):
            code, env = run_json(capsys, "snf", "--matrix", str(mat), "--transforms")
        assert code == EXIT_OK
        validate_data(env["data"], "snf")
        assert env["data"]["diagonal"] == [1, 6]

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[[1.5, 2], [3, 4]]", "row 0, column 0"),
            ('[[1, "a"], [2, 3]]', "row 0, column 1"),
            ("[1, 2]", "row 0"),
            ('{"a": 1}', "list of rows"),
            *UNREADABLE_JSON,
        ],
    )
    def test_snf_rejects_malformed_matrix(self, capsys, tmp_path, text, where):
        mat = tmp_path / "mat.json"
        mat.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, env = run_json(capsys, "snf", "--matrix", str(mat))
        assert code == EXIT_DOMAIN
        assert env["status"] == "error"
        assert where in env["diagnostics"][0]

    def test_snf_empty_matrix(self, capsys, tmp_path):
        mat = tmp_path / "mat.json"
        mat.write_text("[]")
        code, env = run_json(capsys, "snf", "--matrix", str(mat))
        assert code == EXIT_OK
        validate_data(env["data"], "snf")
        assert env["data"]["cokernel"] == {"free_rank": 0, "torsion": [], "display": "0"}

    def test_nab(self, capsys):
        code, env = run_json(
            capsys, "nab", "--surface", "nonorientable", "-g", "2", "-k", "3"
        )
        assert code == EXIT_OK
        validate_data(env["data"], "nab")
        assert env["data"]["quotient"]["display"] == "Z + Z/2"
        assert env["data"]["notes"]

    def test_nab_domain_error(self, capsys):
        code = main(["nab", "--surface", "orientable", "-g", "0", "-k", "1"])
        assert code == EXIT_DOMAIN

    def test_dims(self, capsys):
        code, env = run_json(
            capsys,
            "dims", "--surface", "sphere", "-k", "3", "--group", "braid",
            "--quantity", "vcd",
        )
        assert code == EXIT_OK
        validate_data(env["data"], "dims")
        assert env["data"]["kind"] == "undefined"
        assert "k >= 4" in env["data"]["reason"]

    def test_dims_nonorientable_bound(self, capsys):
        _, env = run_json(
            capsys,
            "dims", "--surface", "nonorientable", "-g", "5", "-k", "2",
            "--group", "mcg", "--quantity", "vcd",
        )
        assert env["data"] == {
            **env["data"],
            "kind": "bound",
            "value": 4 * 5 + 2 - 8,
        }


class TestVerification:
    def test_verify_presentations(self, capsys):
        code, env = run_json(capsys, "verify-presentations")
        assert code == EXIT_OK
        validate_data(env["data"], "verifyPresentations")
        assert env["data"]["passed"]
        assert set(env["data"]["reports"]) == {
            "surface_generators", "delta_tau", "full_group", "embedding",
        }

    def test_verify_presentations_fuzz_seeded(self, capsys):
        code, env = run_json(
            capsys, "verify-presentations", "--fuzz", "50", "--seed", "7"
        )
        assert code == EXIT_OK
        assert env["data"]["fuzz"] == {"samples": 50, "seed": 7, "failures": 0}

    def test_hom_check(self, capsys, tmp_path):
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(HOM_SPEC))
        code, env = run_json(capsys, "hom-check", "--file", str(path))
        assert code == EXIT_OK
        assert env["data"]["report"]["passed"]

    def test_hom_check_failure_reported(self, capsys, tmp_path):
        spec = {
            "alphabet": ["al", "be"],
            "relators": ["al*be*al*be^-1"],
            "target": "klein",
            "images": {"al": "al", "be": "al"},
        }
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(spec))
        code, env = run_json(capsys, "hom-check", "--file", str(path))
        assert code == EXIT_OK
        assert env["data"]["report"]["passed"] is False

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1, 2], "must be a JSON object"),
            ({"alphabet": ["al"], "relators": [], "target": "klein"}, "missing field 'images'"),
            (
                {"alphabet": ["al"], "relators": "al", "target": "klein", "images": {"al": "al"}},
                "field 'relators' must be",
            ),
            (
                {"alphabet": ["al"], "relators": [], "target": "klein", "images": {"al": 1}},
                "field 'images' must be",
            ),
            *UNREADABLE_JSON,
        ],
    )
    def test_hom_check_rejects_malformed_spec(self, capsys, tmp_path, spec, message):
        path = tmp_path / "hom.json"
        path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        code, env = run_json(capsys, "hom-check", "--file", str(path))
        assert code == EXIT_DOMAIN
        assert message in env["diagnostics"][0]

    def test_hom_check_rejects_stray_image(self, capsys, tmp_path):
        spec = {
            "alphabet": ["al", "be"],
            "relators": ["al*be*al*be^-1"],
            "target": "klein",
            "images": {"al": "al", "be": "be", "zz": "al^5"},
        }
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(spec))
        code, env = run_json(capsys, "hom-check", "--file", str(path))
        assert code == EXIT_DOMAIN
        assert "outside the alphabet" in env["diagnostics"][0]
        assert "zz" in env["diagnostics"][0]

    def test_human_output(self, capsys):
        code, out = run(capsys, "phi1", "--word", "be^2")
        assert code == EXIT_OK
        assert "b" in out

    def test_verify_presentations_fails_on_a_failed_report(self, capsys, monkeypatch):
        broken = HomReport(((klein.KLEIN_ALPHABET.parse("al"), False),))
        monkeypatch.setattr(torusbraid, "verify_all_presentations", lambda: {"broken": broken})
        code, env = run_json(capsys, "verify-presentations")
        assert code == EXIT_DOMAIN
        assert env["diagnostics"] == ["presentation verification failed"]

    def test_verify_presentations_fails_on_a_broken_fuzz(self, capsys, monkeypatch):
        # A constant map to sigma is no homomorphism: sigma*sigma = B, not sigma.
        sigma = torusbraid.from_word(torusbraid.B2T_ALPHABET.parse("s"))
        monkeypatch.setattr(embeddings, "phi1", lambda g: sigma)
        assert run_json(capsys, "verify-presentations")[0] == EXIT_OK
        code, env = run_json(capsys, "verify-presentations", "--fuzz", "3")
        assert code == EXIT_DOMAIN
        assert env["diagnostics"] == ["presentation verification failed"]


class TestTextOutput:
    def test_matrices_and_points_print_as_rows(self, capsys, tmp_path):
        matrix = [[2, 4, 1], [6, 8, 3], [1, 1, 1]]
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps(matrix))
        lines = run(capsys, "snf", "--matrix", str(mat), "--transforms")[1].splitlines()
        result = surfgroups.smith_normal_form(matrix, transforms=True)
        assert f"U: {[list(row) for row in result.U]}" in lines
        assert f"V: {[list(row) for row in result.V]}" in lines

        lines = run(capsys, "lift", "--points", "1/4,0;1/3,1/2")[1].splitlines()
        assert "input: [[1/4, 0], [1/3, 1/2]]" in lines
        assert "lifted: [[1/4, 0], [1/3, 1/2], [3/4, 0], [5/6, 1/2]]" in lines

        assert "  E3: [[-1, 0], [0, -1]]" in run(capsys, "mcgk")[1].splitlines()

    def test_relators_print_one_line_each(self, capsys, tmp_path):
        spec = {
            "alphabet": ["al", "be"],
            "relators": ["al*be*al*be^-1", "al*be^-1", "be^2"],
            "target": "klein",
            "images": {"al": "al", "be": "al"},
        }
        (tmp_path / "hom.json").write_text(json.dumps(spec))
        code, out = run(capsys, "hom-check", "--file", str(tmp_path / "hom.json"))
        assert code == EXIT_OK
        assert out.splitlines()[-4:] == [
            "  relators:",
            "    - relator: al*be*al*be^-1, ok: False",
            "    - relator: al*be^-1, ok: True",
            "    - relator: be^2, ok: False",
        ]


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        (
            ["nf", "--group", "b2t", "--word", "s*x^1000000000"],
            EXIT_OK,
            '"free_part": "x*y^-1*x^-1000000000*y*x^-1"',
        ),
        (["nf", "--group", "b2t", "--word", "s^1000000000"], EXIT_DOMAIN, "budget of 1000000"),
        (["nf", "--group", "p2t", "--word", "B^1000000000"], EXIT_DOMAIN, "budget of 1000000"),
        (["nf", "--group", "b2t", "--word", "s*B^99999999"], EXIT_DOMAIN, "budget of 1000000"),
        (["phi1", "--word", "be^1000000000"], EXIT_OK, '"word": "b^500000000"'),
        (["verify-presentations", "--fuzz", "100000000"], EXIT_DOMAIN, "between 0 and 10000"),
        (["verify-presentations", "--fuzz", "-5"], EXIT_DOMAIN, "between 0 and 10000"),
        (["nab", "--surface", "nonorientable", "-g", "500", "-k", "500"], EXIT_OK,
         '"display": "Z^499 + Z/2"'),
        (["nab", "--surface", "orientable", "-g", "1", "-k", "101"], EXIT_OK, '"display": "Z^2"'),
        (["lift", "--points", "1e9999999,0"], EXIT_PARSE, "at column 1"),
        (["lift", "--points", "1/4,0;1e99999999,0"], EXIT_PARSE, "at column 7"),
        (["lift", "--points", "0,1E9"], EXIT_PARSE, "at column 1"),
        (["nf", "--group", "klein", "--word", "al^" + LONG_DIGITS], EXIT_PARSE, "at column 1"),
        (["nf", "--group", "b2t", "--word", "x*x^" + LONG_DIGITS], EXIT_PARSE, "at column 3"),
        (
            ["dims", "--surface", "sphere", "-g", "3", "-k", "5", "--group", "braid",
             "--quantity", "vcd"],
            EXIT_DOMAIN,
            "fixes the genus",
        ),
        (["nab", "--surface", "nonorientable", "-g", "1", "-k", "101"], EXIT_OK, '"display": "Z/2"'),
        # The inverse fits the budget, though s^-1 times the product-form
        # inverse of s^-499999 would have 1,000,002 syllables.
        (["inv", "--group", "b2t", "--word", "s^-499999"], EXIT_OK, '"eps": 1'),
    ],
)
def test_short_inputs_finish_in_time(capsys, argv, code, needle):
    with deadline(2.0):
        got, env = run_json(capsys, *argv)
    assert got == code
    assert needle in json.dumps(env)


def test_over_long_exponent_in_relator_is_parse_error(capsys, tmp_path):
    spec = dict(HOM_SPEC, relators=["al*be*al*be^" + LONG_DIGITS])
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(spec))
    with deadline(2.0):
        code, env = run_json(capsys, "hom-check", "--file", str(path))
    assert code == EXIT_PARSE
    assert "at column 10" in env["diagnostics"][0]


# As many digits as the interpreter converts between int and str; twice this
# number has one digit more.
MAX_DIGITS = "9" * sys.get_int_max_str_digits()
TOO_LONG_TO_PRINT = (
    "the result has an integer too long to print "
    f"(more than {sys.get_int_max_str_digits()} digits)"
)


# Inputs that print fine but whose results have an integer too long to print.
# A matrix or spec argument is written to a file, and its path passed instead.
TOO_LONG_RESULTS = {
    "nf": ["nf", "--group", "klein", "--word", f"al^{MAX_DIGITS}*be*al^-{MAX_DIGITS}*be^-1"],
    "phi1": ["phi1", "--word", f"al^{MAX_DIGITS}"],
    "snf": ["snf", "--matrix", [[3**8000, 0], [0, 2**13000 + 1]]],
    "snf-transforms": [
        "snf", "--transforms", "--matrix", [[1, 7**4700, 0], [0, 1, 3**8900], [0, 0, 1]],
    ],
    "dims": ["dims", "--surface", "torus", "-k", MAX_DIGITS, "--group", "braid", "--quantity", "cd"],
    "nab": ["nab", "--surface", "orientable", "-g", MAX_DIGITS, "-k", "1"],
    "lift": ["lift", "--points", f"1/{MAX_DIGITS},0"],
    "hom-check": [
        "hom-check", "--file",
        {"alphabet": ["al", "be"], "relators": [f"al^{MAX_DIGITS}*al"], "target": "klein",
         "images": {"al": "al", "be": "be"}},
    ],
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", TOO_LONG_RESULTS)
def test_result_exponent_too_long_to_print(capsys, tmp_path, case, as_json):
    argv = []
    for arg in TOO_LONG_RESULTS[case]:
        if isinstance(arg, (list, dict)):
            (tmp_path / "mat.json").write_text(json.dumps(arg))
            arg = str(tmp_path / "mat.json")
        argv.append(arg)
    with deadline(2.0):
        if as_json:
            code, env = run_json(capsys, *argv)
            (message,) = env["diagnostics"]
        else:
            code = main(argv)
            captured = capsys.readouterr()
            assert captured.out == ""
            message = captured.err.removeprefix("error: ")
    assert code == EXIT_DOMAIN
    assert message.strip() == TOO_LONG_TO_PRINT


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_key_error_is_not_a_domain_error(monkeypatch, error):
    def broken(args):
        raise error("internal")

    monkeypatch.setattr(surfgroups.cli, "cmd_mcgk", broken)
    with pytest.raises(error):
        main(["mcgk"])


# Word, point and number fields of at most 12 bytes: words and point lists in
# their grammars, or any text over their characters, cut to 12 bytes.  Word
# exponents reach 10^10, all that 12 bytes can write.  Closed-form powers and
# inverses, and negation that shares one syllable among its repeats, keep the
# slowest known fields under 1 s on an idle 2-CPU Xeon, in-process, best of 3:
# `nf --group b2t --word s*B^-250000` takes 0.31 s, `mul --group b2t
# s*B^249999 s^-499999 s*B^249999` 0.59 s, and a b2t spec with images
# s^499999, s^-499999 and relators t*u*t, u*t*u, t^-1*u^-1 0.69 s.  A search
# of 900 `mul` and `hom-check` commands over near-budget fields found none
# over 0.73 s.  The examples cover inputs near and over the normal-form budget.
TEXT = st.text(alphabet="albexysB1234567890*^-/,.;E ", max_size=12)
COORD = st.integers(-9, 99).map(str) | st.builds(
    "{}/{}".format, st.integers(-9, 99), st.integers(0, 99)
)
POINTS = st.lists(st.builds("{},{}".format, COORD, COORD), max_size=3).map(";".join)
NUMBER = st.integers(-3, 120).map(str) | st.integers(-(10**10), 10**11).map(str) | TEXT


def field(alphabet):
    """A word over the alphabet with exponents within +-10^10, a point list
    or any text, cut to 12 bytes."""
    name = st.sampled_from(alphabet.names)
    term = st.builds("{}^{}".format, name, st.integers(-(10**10), 10**10)) | name
    word = st.lists(term, min_size=1, max_size=3).map("*".join)
    return st.one_of(word, POINTS, TEXT).map(lambda text: text[:12])


def engine_argvs(group):
    word = field(ENGINES[group].alphabet)
    return st.one_of(
        word.map(lambda w: ["nf", "--group", group, "--word", w]),
        word.map(lambda w: ["inv", "--group", group, "--word", w]),
        st.lists(word, min_size=1, max_size=3).map(lambda ws: ["mul", "--group", group, *ws]),
    )


# A hom-check spec over generators t and u, as a dict in place of the file
# name; the test writes it to a file.
HOM_NAMES = Alphabet.of("t", "u")
HOM_SPECS = st.sampled_from(sorted(ENGINES)).flatmap(
    lambda group: st.fixed_dictionaries(
        {
            "alphabet": st.just(list(HOM_NAMES.names)),
            "relators": st.lists(field(HOM_NAMES), min_size=1, max_size=3),
            "target": st.just(group),
            "images": st.fixed_dictionaries(
                {name: field(ENGINES[group].alphabet) for name in HOM_NAMES.names}
            ),
        }
    )
)


def hom_spec(group, relators, **images):
    return {"alphabet": ["t", "u"], "relators": relators, "target": group, "images": images}


# An argument vector for every subcommand but snf, which reads a matrix file.
SHORT_ARGVS = st.one_of(
    *map(engine_argvs, sorted(ENGINES)),
    HOM_SPECS.map(lambda spec: ["hom-check", "--file", spec]),
    st.builds(
        lambda w, f: ["phi1", "--word", w, *f],
        field(klein.KLEIN_ALPHABET), st.sampled_from([[], ["--closed-form"]]),
    ),
    st.builds(lambda n: ["ball", "--radius", n], NUMBER),
    st.builds(lambda f: ["mcgk", *f], st.sampled_from([[], ["--table"]])),
    st.builds(lambda p: ["lift", "--points", p], field(klein.KLEIN_ALPHABET)),
    st.builds(
        lambda s, g, k: ["nab", "--surface", s, "-g", g, "-k", k],
        st.sampled_from(["orientable", "nonorientable"]), NUMBER, NUMBER,
    ),
    st.builds(
        lambda s, g, k, grp, q: ["dims", "--surface", s, *g, "-k", k, "--group", grp, "--quantity", q],
        st.sampled_from([dims.ORIENTABLE, dims.NONORIENTABLE, *dims.NAMED_SURFACES]),
        st.one_of(st.just([]), NUMBER.map(lambda g: ["-g", g])),
        NUMBER,
        st.sampled_from(dims.GROUPS),
        st.sampled_from(dims.QUANTITIES),
    ),
    st.builds(lambda n, s: ["verify-presentations", "--fuzz", n, "--seed", s], NUMBER, NUMBER),
)


@given(SHORT_ARGVS, st.booleans())
@settings(max_examples=300, deadline=None)
# Inputs near and over the normal-form budget, and each refusal of these
# subcommands, so none can turn into a bare ValueError unseen.
@example(["nf", "--group", "b2t", "--word", "s^999999999"], True)
@example(["nf", "--group", "b2t", "--word", "s^2000001"], False)
@example(["inv", "--group", "b2t", "--word", "s^499999"], True)
@example(["inv", "--group", "p2t", "--word", "B^250000"], True)
@example(["mul", "--group", "b2t", "s^499999", "s^-499999", "s^499999"], True)
@example(["mul", "--group", "b2t", "s*B^249999", "s^-499999", "s*B^249999"], True)
@example(["hom-check", "--file", hom_spec("b2t", ["t*u*t", "u*t*u", "t^-1*u^-1"], t="s^499999", u="s^-499999")], True)
@example(["hom-check", "--file", hom_spec("b2t", ["t*u*t", "u^2*t"], t="s*B^99999", u="B^-99999*s")], True)
@example(["hom-check", "--file", hom_spec("p2t", ["t^9"], t="B^99999", u="x")], False)
@example(["nab", "--surface", "orientable", "-g", "0", "-k", "1"], True)
@example(["nab", "--surface", "nonorientable", "-g", "1", "-k", "0"], False)
@example(["ball", "--radius", "-1"], True)
@example(["ball", "--radius", "65"], False)
@example(["lift", "--points", "1/2,0"], True)
@example(["lift", "--points", "0,0;0,0"], False)
@example(["dims", "--surface", "nonorientable", "-g", "0", "--group", "mcg", "--quantity", "vcd"], True)
@example(["dims", "--surface", "orientable", "-g", "-1", "--group", "braid", "--quantity", "cd"], False)
@example(["dims", "--surface", "torus", "-k", "-1", "--group", "mcg", "--quantity", "vcd"], True)
@example(["dims", "--surface", "orientable", "--group", "mcg", "--quantity", "vcd"], True)
@example(["dims", "--surface", "sphere", "-g", "0", "--group", "mcg", "--quantity", "vcd"], False)
@example(["verify-presentations", "--fuzz", "-1"], True)
def test_short_argument_vectors_exit_0_1_or_2(argv, as_json):
    """Every refusal is a DomainError or a usage error: no other exception
    escapes main, and no field of at most 12 bytes hangs it.  A dict in argv
    is a hom-check spec, written to a file first."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "hom.json"
        for arg in argv:
            if isinstance(arg, dict):
                spec.write_text(json.dumps(arg))
        argv = [str(spec) if isinstance(arg, dict) else arg for arg in argv]
        with deadline(2.0), redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--json"] * as_json)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_PARSE)
    if as_json:
        Draft202012Validator(ENVELOPE).validate(json.loads(out.getvalue()))


def readme_commands():
    """The `surfgroups` lines of the sh block under "Command line" in README.md."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("surfgroups ")]


# The schema definition of each command's data, where it is not the command's name.
DATA_SCHEMAS = {"mul": "nf", "inv": "nf", "verify-presentations": "verifyPresentations"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mat.json").write_text("[[2, 4], [6, 8]]")
    (tmp_path / "hom.json").write_text(json.dumps(HOM_SPEC))
    with deadline(2.0):
        assert run(capsys, *argv)[0] == EXIT_OK
        code, env = run_json(capsys, *argv)
    assert code == EXIT_OK
    if argv[0] == "hom-check":
        validate_data(env["data"]["report"], "homReport")
    else:
        validate_data(env["data"], DATA_SCHEMAS.get(argv[0], argv[0]))


def outcome(argv):
    """Exit code, stdout and stderr of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# One argument vector per subcommand; a subcommand with an optional flag or
# option comes twice, with it and then without, so a value left over from the
# call before would show.
REUSE_BASES = [
    ["nf", "--group", "klein", "--word", "be*al*be"],
    ["nf", "--group", "b2t", "--word", "s*x^2*a^-1"],
    ["mul", "--group", "p2t", "x*y", "a^-1*B", "b"],
    ["inv", "--group", "b2t", "--word", "s"],
    ["hom-check", "--file", "hom.json"],
    ["phi1", "--word", "al^2*be^4", "--closed-form"],
    ["phi1", "--word", "be^3"],
    ["ball", "--radius", "2"],
    ["mcgk", "--table"],
    ["mcgk"],
    ["lift", "--points", "1/4,1/3;0,1/2"],
    ["snf", "--transforms", "--matrix", "mat.json"],
    ["snf", "--matrix", "mat.json"],
    ["nab", "--surface", "nonorientable", "-g", "3", "-k", "2"],
    ["dims", "--surface", "orientable", "-g", "2", "-k", "3", "--group", "mcg", "--quantity", "vcd"],
    ["dims", "--surface", "torus", "--group", "braid", "--quantity", "cd"],
    ["verify-presentations", "--fuzz", "3", "--seed", "5"],
    ["verify-presentations"],
]

# Every base in text and --json mode, the modes alternating and flipped in
# the second half, with a usage error with and without --json, a word parse
# error, a domain error and the help between them.
REUSE_ARGVS = [
    *(argv + ["--json"] * (i % 2) for i, argv in enumerate(REUSE_BASES)),
    ["nf", "--group", "klein", "--json"],
    ["nf", "--group", "klein"],
    ["nf", "--group", "klein", "--word", "al**be"],
    ["ball", "--radius", "65", "--json"],
    ["--help"],
    ["nf", "--help"],
    *(argv + ["--json"] * (1 - i % 2) for i, argv in enumerate(REUSE_BASES)),
    ["mul", "--group", "klein", "--json"],
    ["inv", "--group", "klein", "--word", "al*zz", "--json"],
    ["lift", "--points", "1/2,0"],
]


def test_reused_parser_answers_like_a_fresh_one(tmp_path, monkeypatch):
    """Slow oracle: every call with the shared parser, run twice over, prints
    and exits exactly as the same call through a parser built for it alone."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mat.json").write_text("[[2, 4, 1], [6, 8, 3], [1, 1, 1]]")
    (tmp_path / "hom.json").write_text(json.dumps(HOM_SPEC))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", build_parser.__wrapped__)
        expected = [outcome(argv) for argv in REUSE_ARGVS]
    assert {code for code, _, _ in expected} == {EXIT_OK, EXIT_DOMAIN, EXIT_PARSE}
    for _ in range(2):
        assert [outcome(argv) for argv in REUSE_ARGVS] == expected
    assert cli.build_parser() is build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["nf", "--help"]], ids=" ".join)
def test_help_prints_the_same_text_and_exits_ok(argv):
    parser = build_parser.__wrapped__()
    if argv[0] == "nf":
        (subcommands,) = [a for a in parser._actions if a.dest == "command"]
        parser = subcommands.choices["nf"]
    for _ in range(3):
        assert outcome(argv) == (EXIT_OK, parser.format_help(), "")


def test_public_surface_is_pinned():
    assert surfgroups.__all__ == [
        "AbelianGroup", "Alphabet", "B2TElement", "DimAnswer", "E1", "E2", "E3", "E4",
        "FreeWord", "Generator", "GroupHom", "KleinElement", "KleinEndo", "mcg_compose",
        "KleinPoint", "MCG_K", "Presentation", "SurfaceSpec", "TorusPoint",
        "certify_injectivity_ball", "cokernel", "consistency_sweep", "dim_query",
        "induced_sl2", "ker_phi_mcgk", "lift_configuration", "lift_matrices",
        "nab_quotient_nonorientable", "nab_quotient_orientable", "oracle_normal_form",
        "phi1", "phi1_closed_form", "smith_normal_form", "verify_all_presentations",
    ]
    (subcommands,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert list(subcommands.choices) == [
        "nf", "mul", "inv", "hom-check", "phi1", "ball", "mcgk", "lift", "snf", "nab",
        "dims", "verify-presentations",
    ]
