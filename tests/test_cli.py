import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import surfgroups
from surfgroups.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, build_parser, main

from conftest import deadline

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
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


class TestAlgebraCommands:
    def test_snf(self, capsys, tmp_path):
        mat = tmp_path / "mat.json"
        mat.write_text("[[2, 0], [0, 3]]")
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
        ],
    )
    def test_snf_rejects_malformed_matrix(self, capsys, tmp_path, text, where):
        mat = tmp_path / "mat.json"
        mat.write_text(text)
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
        spec = {
            "alphabet": ["al", "be"],
            "relators": ["al*be*al*be^-1"],
            "target": "b2t",
            "images": {"al": "a^-1*x^2", "be": "y*s^-1"},
        }
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(spec))
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
        ],
    )
    def test_hom_check_rejects_malformed_spec(self, capsys, tmp_path, spec, message):
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(spec))
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
    ],
)
def test_short_inputs_finish_in_time(capsys, argv, code, needle):
    with deadline(2.0):
        got, env = run_json(capsys, *argv)
    assert got == code
    assert needle in json.dumps(env)


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
