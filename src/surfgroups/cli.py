"""Command-line entry point exposing every engine operation.

Every subcommand supports --json, emitting a versioned result envelope:
{"schema": ..., "status": "ok"|"error", "data": ..., "diagnostics": [...]}.
Exit codes: 0 ok; 1 a domain error, that is any `DomainError`, including an
unreadable or malformed input file; 2 a parse or usage error.  Any other
exception is a bug and propagates with a traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import abelian, dims, embeddings, klein, torusbraid
from .words import Alphabet, DomainError, GroupHom, HomReport, Presentation, WordParseError

SCHEMA_ID = "surfgroups/result/v1"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2

# verify-presentations --fuzz checks one phi1 product per sample, about 0.015 ms
# each (Python 3.11, 2-CPU Xeon); the bound keeps a run well under a second.
MAX_FUZZ_SAMPLES = 10_000


class _UsageError(Exception):
    """An argparse usage error, raised to `main` instead of exiting: (prog, message)."""


class _HelpShown(Exception):
    """argparse printed the help, raised to `main` instead of exiting."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(self.prog, message)

    def exit(self, status=0, message=None):
        # With `error` overridden, only the help action exits.
        raise _HelpShown()


# Command functions return result objects (elements, words, groups, answers,
# fractions); `_render` turns them into text through str().


def _klein_json(e: klein.KleinElement) -> dict:
    return {"word": e, "r": e.r, "s": e.s}


def _b2t_json(e: torusbraid.B2TElement) -> dict:
    return {"word": e, "free_part": e.w, "m": e.m, "n": e.n, "eps": e.eps}


@dataclass(frozen=True)
class _Engine:
    from_word: Callable  # klein.from_word or torusbraid.from_word
    alphabet: Alphabet
    identity: object
    to_json: Callable[..., dict]

    def parse(self, text: str):
        return self.from_word(self.alphabet.parse(text))


ENGINES = {
    "klein": _Engine(klein.from_word, klein.KLEIN_ALPHABET, klein.KLEIN_IDENTITY, _klein_json),
    "p2t": _Engine(torusbraid.from_word, torusbraid.P2T_ALPHABET, torusbraid.IDENTITY, _b2t_json),
    "b2t": _Engine(torusbraid.from_word, torusbraid.B2T_ALPHABET, torusbraid.IDENTITY, _b2t_json),
}


def _hom_report_json(report: HomReport) -> dict:
    return {
        "passed": report.passed,
        "relators": [{"relator": rel, "ok": ok} for rel, ok in report.results],
    }


def cmd_nf(args) -> dict:
    engine = ENGINES[args.group]
    elem = engine.parse(args.word)
    return {"group": args.group, "element": engine.to_json(elem)}


def cmd_mul(args) -> dict:
    engine = ENGINES[args.group]
    result = engine.parse(args.words[0])
    for w in args.words[1:]:
        result = result * engine.parse(w)
    return {"group": args.group, "element": engine.to_json(result)}


def cmd_inv(args) -> dict:
    engine = ENGINES[args.group]
    return {"group": args.group, "element": engine.to_json(engine.parse(args.word).inverse())}


_HOM_SPEC_FIELDS = (
    ("alphabet", list, "an array of generator names"),
    ("relators", list, "an array of words"),
    ("target", str, "an engine name"),
    ("images", dict, "an object mapping generators to words"),
)


def _read_json(path: str):
    """The JSON value in a file.  An unreadable file, bad UTF-8 or bad JSON
    is a domain error with the reader's own message; JSON nested deeper than
    the reader recurses is one too."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(str(exc)) from exc
    except RecursionError as exc:
        raise DomainError(f"the JSON in {path} is nested too deeply") from exc


def _check_hom_spec(spec) -> None:
    """Name the first missing or ill-typed field of a hom-check spec."""
    if not isinstance(spec, dict):
        raise DomainError(f"hom-check spec must be a JSON object, got {type(spec).__name__}")
    for field, kind, what in _HOM_SPEC_FIELDS:
        if field not in spec:
            raise DomainError(f"hom-check spec is missing field {field!r}")
        value = spec[field]
        items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
        if not isinstance(value, kind) or not all(isinstance(v, str) for v in items):
            raise DomainError(f"hom-check spec field {field!r} must be {what}")


def cmd_hom_check(args) -> dict:
    spec = _read_json(args.file)
    _check_hom_spec(spec)
    alphabet = Alphabet.of(*spec["alphabet"])
    presentation = Presentation.parse(alphabet, spec["relators"])
    target = spec["target"]
    if target not in ENGINES:
        raise DomainError(f"unknown target engine {target!r}")
    engine = ENGINES[target]
    images = {name: engine.parse(word) for name, word in spec["images"].items()}
    hom = GroupHom(presentation, images, identity=engine.identity)
    return {"target": target, "report": _hom_report_json(hom.verify())}


def cmd_phi1(args) -> dict:
    word = klein.KLEIN_ALPHABET.parse(args.word)
    elem = klein.from_word(word)
    data = {"input": _klein_json(elem), "image": _b2t_json(embeddings.phi1(elem))}
    if args.closed_form:
        # phi1 is the closed form, so check it against the generator images.
        cf = embeddings.phi1_closed_form(elem.r, elem.s)
        data["closed_form"] = _b2t_json(cf)
        data["closed_form_agrees"] = cf == embeddings.PHI1_HOM.evaluate(word)
    return data


def cmd_ball(args) -> dict:
    report = embeddings.certify_injectivity_ball(args.radius)
    return {
        "radius": report.radius,
        "count": report.count,
        "expected": (2 * report.radius + 1) ** 2,
        "collisions": [list(pair) for pair in report.collisions],
        "passed": report.passed,
    }


def cmd_mcgk(args) -> dict:
    names = {e: f"E{i}" for i, e in enumerate(klein.MCG_K, 1)}
    data = {
        "automorphisms": {n: {"al": e.image_alpha, "be": e.image_beta} for e, n in names.items()},
        "sl2_images": {n: embeddings.induced_sl2(e).rows() for e, n in names.items()},
        "kernel": [names[e] for e in embeddings.ker_phi_mcgk()],
    }
    if args.table:
        data["compose_table"] = {
            f"{names[e1]}*{names[e2]}": names[klein.mcg_compose(e1, e2)]
            for e1 in names
            for e2 in names
        }
    return data


def _parse_points(text: str) -> list[embeddings.KleinPoint]:
    points = []
    if not text.strip():
        return points
    column = 1
    for chunk in text.split(";"):
        try:
            u_str, v_str = chunk.split(",")
            if "e" in chunk.lower():
                # Fraction expands exponent notation eagerly: '1e9999999' would hang.
                raise ValueError("exponent notation is not accepted")
            u, v = Fraction(u_str.strip()), Fraction(v_str.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise WordParseError("invalid point", chunk, column) from exc
        points.append(embeddings.KleinPoint(u, v))
        column += len(chunk) + 1
    return points


def cmd_lift(args) -> dict:
    points = _parse_points(args.points)
    lifted = embeddings.lift_configuration(points)
    return {
        "input": [[p.u, p.v] for p in points],
        "lifted": [[p.u, p.v] for p in lifted],
        "count": len(lifted),
    }


def _group_json(group: abelian.AbelianGroup) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion), "display": group}


def cmd_snf(args) -> dict:
    mat = _read_json(args.matrix)
    result = abelian.smith_normal_form(mat, transforms=args.transforms)
    group = abelian.AbelianGroup.from_diagonal(result.diagonal, len(mat[0]) if mat else 0)
    data = {
        "diagonal": list(result.diagonal),
        "cokernel": _group_json(group),
    }
    if args.transforms:
        data["U"] = [list(r) for r in result.U]
        data["V"] = [list(r) for r in result.V]
    return data


def cmd_nab(args) -> dict:
    if args.surface == "orientable":
        group = abelian.nab_quotient_orientable(args.genus, args.punctures)
        notes = []
    else:
        group = abelian.nab_quotient_nonorientable(args.genus, args.punctures)
        notes = [abelian.NONORIENTABLE_RANK_NOTE]
    return {
        "surface": args.surface,
        "g": args.genus,
        "k": args.punctures,
        "quotient": _group_json(group),
        "notes": notes,
    }


def cmd_dims(args) -> dict:
    if args.surface in (dims.ORIENTABLE, dims.NONORIENTABLE):
        if args.genus is None:
            raise DomainError("--surface orientable/nonorientable requires -g")
        surface = dims.SurfaceSpec(args.surface, args.genus, args.punctures)
    elif args.genus is not None:
        raise DomainError(f"--surface {args.surface} fixes the genus; drop -g")
    else:
        surface = dims.SurfaceSpec.named(args.surface, args.punctures)
    answer = dims.dim_query(surface, args.group, args.quantity)
    return {
        "surface": {"kind": surface.kind, "genus": surface.genus, "punctures": surface.punctures},
        "group": args.group,
        "quantity": args.quantity,
        "kind": answer.kind,
        "value": answer.value,
        "reason": answer.reason,
        "display": answer,
    }


def cmd_verify_presentations(args) -> dict:
    if not 0 <= args.fuzz <= MAX_FUZZ_SAMPLES:
        raise DomainError(f"--fuzz must be between 0 and {MAX_FUZZ_SAMPLES}, got {args.fuzz}")
    reports = {**torusbraid.verify_all_presentations(), "embedding": embeddings.PHI1_HOM.verify()}
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.fuzz):
        u = klein.KleinElement(rng.randint(-20, 20), rng.randint(-20, 20))
        v = klein.KleinElement(rng.randint(-20, 20), rng.randint(-20, 20))
        failures += embeddings.phi1(u * v) != embeddings.phi1(u) * embeddings.phi1(v)
    if failures or not all(rep.passed for rep in reports.values()):
        raise DomainError("presentation verification failed")
    data = {"reports": {name: _hom_report_json(rep) for name, rep in reports.items()}}
    if args.fuzz:
        data["fuzz"] = {"samples": args.fuzz, "seed": args.seed, "failures": failures}
    data["passed"] = True
    return data


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and then shared
    by every later call in the process; callers must not mutate it.  It holds
    no command functions: `main` looks up `cmd_<name>` by the parsed
    subcommand name at call time."""
    parser = _Parser(
        prog="surfgroups",
        description="Exact normal-form computations for surface braid and mapping class groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON result envelope")
        return p

    p = add("nf", "normal form of a word in an engine")
    p.add_argument("--group", choices=sorted(ENGINES), required=True)
    p.add_argument("--word", required=True)

    p = add("mul", "product of words in an engine")
    p.add_argument("--group", choices=sorted(ENGINES), required=True)
    p.add_argument("words", nargs="+", metavar="WORD")

    p = add("inv", "inverse of a word in an engine")
    p.add_argument("--group", choices=sorted(ENGINES), required=True)
    p.add_argument("--word", required=True)

    p = add("hom-check", "verify a homomorphism on relators from a JSON file")
    p.add_argument("--file", required=True)

    p = add("phi1", "embed a Klein-bottle group element into the torus braid group")
    p.add_argument("--word", required=True, help="word over al, be")
    p.add_argument("--closed-form", action="store_true", help="also report the closed form")

    p = add("ball", "certify injectivity of the embedding on a ball")
    p.add_argument("--radius", type=int, required=True)

    p = add("mcgk", "Klein-bottle mapping classes and their SL(2,Z) images")
    p.add_argument("--table", action="store_true", help="include the composition table")

    p = add("lift", "lift a point configuration through the double cover")
    p.add_argument(
        "--points", required=True,
        help="semicolon-separated 'u,v' rational pairs, as fractions or decimals without exponent",
    )

    p = add("snf", "Smith normal form of an integer matrix from a JSON file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--transforms", action="store_true")

    p = add("nab", "abelianised fiber quotient for a punctured surface")
    p.add_argument("--surface", choices=["orientable", "nonorientable"], required=True)
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("-k", "--punctures", type=int, required=True)

    p = add("dims", "cohomological dimension oracle")
    p.add_argument(
        "--surface",
        choices=[dims.ORIENTABLE, dims.NONORIENTABLE, *dims.NAMED_SURFACES],
        required=True,
    )
    p.add_argument("-g", "--genus", type=int)
    p.add_argument("-k", "--punctures", type=int, default=0)
    p.add_argument("--group", choices=list(dims.GROUPS), required=True)
    p.add_argument("--quantity", choices=list(dims.QUANTITIES), required=True)

    p = add("verify-presentations", "verify all shipped presentations")
    p.add_argument("--fuzz", type=int, default=0, metavar="N", help="random homomorphism samples")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _envelope(status: str, data: dict, diagnostics: list[str]) -> str:
    envelope = {"schema": SCHEMA_ID, "status": status, "data": data, "diagnostics": diagnostics}
    return json.dumps(envelope, indent=2, sort_keys=True, default=str)


def _render(data: dict, as_json: bool) -> str:
    """The whole output of a command that succeeded, as one string."""
    try:
        return _envelope("ok", data, []) if as_json else "\n".join(_human_lines(data))
    except ValueError as exc:  # an integer with more digits than str() converts
        raise DomainError("the result has an integer too long to print (more than "
                          f"{sys.get_int_max_str_digits()} digits)") from exc


def _human_lines(data: dict, indent: int = 0):
    """A dict nests by indentation, a list of dicts prints one `- k: v, ...` line
    per item, and any other value prints on one line."""
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict) and value:
            yield f"{pad}{key}:"
            yield from _human_lines(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{pad}{key}:"
            for item in value:
                yield f"{pad}  - " + ", ".join(f"{k}: {_inline(v)}" for k, v in item.items())
        else:
            yield f"{pad}{key}: {_inline(value)}"


def _inline(value) -> str:
    """One line; a list keeps its nesting, so a matrix prints as a list of rows."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_inline, value)) + "]"
    return str(value)


def _emit_error(message: str, as_json: bool, label: str = "error") -> None:
    if as_json:
        print(_envelope("error", {}, [message]))
    else:
        print(f"{label}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:  # argparse printed the usage to stderr already
        prog, message = exc.args
        _emit_error(message, "--json" in argv, f"{prog}: error")
        return EXIT_PARSE
    except _HelpShown:  # argparse printed the help to stdout already
        return EXIT_OK
    command = globals()["cmd_" + args.command.replace("-", "_")]
    as_json = args.json
    try:
        text = _render(command(args), as_json)
    except WordParseError as exc:
        _emit_error(str(exc), as_json)
        return EXIT_PARSE
    except DomainError as exc:
        _emit_error(str(exc), as_json)
        return EXIT_DOMAIN
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
