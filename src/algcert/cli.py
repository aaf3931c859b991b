"""Command line front-end.

Subcommands: build, validate, decompose, closure, oracle, certify. Every
run emits one canonical JSON report (sorted keys, compact separators) to
stdout or to ``-o``; reruns with the same file, flags and seed produce
byte-identical reports apart from the wall_time_s field.

Exit codes: 0 pass/success, 2 fail (or axiom violations under validate), 3
hypothesis not met, 1 input or usage error, as when a file that violates an
axiom reaches certify or decompose, which run behind the axiom gate.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from . import __version__
from . import certificates as certs
from .closure import (
    PAIR_STRUCTURES,
    STRUCTURES,
    generator_set,
    lie_closure,
    assoc_closure,
    pair_closure,
    word_oracle,
)
from .decomposition import kh_split, peirce_decompose, z_grading
from .errors import AlgcertError, CliInputError
from .formats import canonical_json, dump_presentation, loads_presentation
from .instances import KINDS, INVOLUTIONS, InstanceSpec, build_instance
from .linalg import field_from_name
from .algebra import hypotheses_for, require_axioms, validate_presentation

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_FAIL = 2
EXIT_HYPOTHESIS = 3

_VERDICT_EXIT = {
    certs.PASS: EXIT_OK,
    certs.FAIL: EXIT_FAIL,
    certs.HYPOTHESIS_NOT_MET: EXIT_HYPOTHESIS,
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so bad flags map to exit 1."""

    def error(self, message):
        raise CliInputError(message)


def _int_at_least(low):
    """argparse type: an int no smaller than low."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing never changes it."""
    top = _Parser(prog="algcert", description=__doc__)
    top.add_argument("--version", action="version", version=f"algcert {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a named instance file")
    p_build.add_argument("--kind", required=True, choices=[k for k in KINDS if k != "custom_file"])
    p_build.add_argument("--n", type=int, default=None)
    p_build.add_argument("--truncation", type=int, default=None)
    p_build.add_argument("--field", default="Q")
    p_build.add_argument("--involution", default="none", choices=INVOLUTIONS)
    p_build.add_argument("-o", "--output", required=True)

    p_val = sub.add_parser("validate", help="check axioms and hypotheses")
    p_val.add_argument("file")
    p_val.add_argument("-o", "--output", default=None)

    p_dec = sub.add_parser("decompose", help="Peirce and graded decompositions")
    p_dec.add_argument("file")
    p_dec.add_argument("--idempotent", default="e")
    p_dec.add_argument("-o", "--output", default=None)

    p_clo = sub.add_parser("closure", help="saturate a generator set")
    p_clo.add_argument("file")
    p_clo.add_argument("--structure", required=True, choices=STRUCTURES)
    p_clo.add_argument("--gens", required=True,
                       help="comma-separated names (generators, idempotents or basis labels)")
    p_clo.add_argument("-o", "--output", default=None)

    p_ora = sub.add_parser("oracle", help="brute-force word span")
    p_ora.add_argument("file")
    p_ora.add_argument("--structure", required=True, choices=STRUCTURES)
    p_ora.add_argument("--gens", required=True)
    p_ora.add_argument("--max-len", type=_int_at_least(1), required=True)
    p_ora.add_argument("-o", "--output", default=None)

    p_cert = sub.add_parser("certify", help="run a generation certificate")
    p_cert.add_argument("file")
    p_cert.add_argument("--claim", required=True, choices=certs.CLAIMS)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--cap", type=_int_at_least(0), default=6)
    p_cert.add_argument("--trials", type=_int_at_least(1), default=50)
    p_cert.add_argument("--max-gen", type=_int_at_least(1), default=5)
    p_cert.add_argument("-o", "--output", default=None)

    return top


def _subspace_report(P, sub):
    return {"rank": sub.rank, "basis": [P.render(el) for el in P.elements(sub)]}


def _resolve_named_elements(P, names):
    out = []
    for name in names:
        if name in P.generators:
            out.append((name, P.generators[name]))
        elif name in P.idempotents:
            out.append((name, P.idempotents[name]))
        elif name in P.basis_labels:
            out.append((name, P.basis_element(P.basis_labels.index(name))))
        else:
            raise CliInputError(f"unknown element name {name!r}")
    return out


def _pair_sides(P, named):
    """Assign pair sides by membership in (eR(1-e), (1-e)Re) for e from the file."""
    e = certs._resolve_idempotent(P, None)
    pd = peirce_decompose(P, e)
    sides = []
    for name, el in named:
        if pd.eRf.contains(el):
            sides.append("-")
        elif pd.fRe.contains(el):
            sides.append("+")
        else:
            raise CliInputError(
                f"generator {name!r} lies in neither off-diagonal Peirce component"
            )
    return sides


def _gen_set_from_args(P, structure, gens_arg):
    names = [s for s in gens_arg.split(",") if s]
    if not names:
        raise CliInputError("--gens must name at least one element")
    named = _resolve_named_elements(P, names)
    items = [(name, el, "cli") for name, el in named]
    sides = _pair_sides(P, named) if structure in PAIR_STRUCTURES else None
    return generator_set(structure, items, sides)


def _cmd_build(args):
    if args.kind in ("matrix_n", "flip_matrix_n") and args.n is None:
        raise CliInputError(f"--kind {args.kind} requires --n")
    if args.kind in ("triangular_example1", "m2_example2") and args.truncation is None:
        raise CliInputError(f"--kind {args.kind} requires --truncation")
    spec = InstanceSpec(
        kind=args.kind,
        n=args.n,
        truncation=args.truncation,
        field=field_from_name(args.field),
        involution=args.involution,
    )
    P = build_instance(spec)
    dump_presentation(P, args.output)
    return EXIT_OK, {
        "built": {
            "name": P.name,
            "dim": P.dim,
            "file": args.output,
            "involution": P.has_involution,
        }
    }


def _cmd_validate(P, args):
    report = validate_presentation(P)
    payload = {
        "violations": [
            {"axiom": v.axiom, "indices": list(v.indices), "message": v.message}
            for v in report.violations
        ],
        "hypotheses": report.hypotheses,
        "ok": report.ok,
    }
    return (EXIT_OK if report.ok else EXIT_FAIL), {"validate": payload}


def _cmd_decompose(P, args):
    require_axioms(P)
    e = certs._resolve_idempotent(P, args.idempotent)
    pd = peirce_decompose(P, e)
    payload = {
        "idempotent": args.idempotent,
        "peirce": {
            "eRe": _subspace_report(P, pd.eRe),
            "eR(1-e)": _subspace_report(P, pd.eRf),
            "(1-e)Re": _subspace_report(P, pd.fRe),
            "(1-e)R(1-e)": _subspace_report(P, pd.fRf),
        },
    }
    if P.has_involution:
        if all(hypotheses_for(P, e, ("ee*=0", "e*e=0")).values()):
            grading = z_grading(P, e)
            kh = kh_split(P, grading)
            payload["grading"] = {
                "dims": list(grading.dims()),
                # The gate proves the grading multiplicative (z_grading).
                "multiplicative": True,
                "components": {
                    str(i): _subspace_report(P, grading.parts[i]) for i in range(-2, 3)
                },
                "KH": {
                    str(i): {
                        "K": _subspace_report(P, kh.graded[i][0]),
                        "H": _subspace_report(P, kh.graded[i][1]),
                    }
                    for i in range(-2, 3)
                },
            }
        else:
            payload["grading"] = "skipped: ee* = e*e = 0 does not hold"
    return EXIT_OK, {"decompose": payload}


def _cmd_closure(P, args):
    gens = _gen_set_from_args(P, args.structure, args.gens)
    if args.structure == "lie":
        trace = lie_closure(P, gens)
    elif args.structure == "associative":
        trace = assoc_closure(P, gens)
    else:
        trace = pair_closure(P, gens, args.structure)
    payload = {"structure": args.structure, "trace": trace.to_json_dict()}
    if isinstance(trace.final, tuple):
        payload["final"] = {
            "minus": _subspace_report(P, trace.final[0]),
            "plus": _subspace_report(P, trace.final[1]),
        }
    else:
        payload["final"] = _subspace_report(P, trace.final)
    return EXIT_OK, {"closure": payload}


def _cmd_oracle(P, args):
    gens = _gen_set_from_args(P, args.structure, args.gens)
    span = word_oracle(P, gens, args.max_len)
    if isinstance(span, tuple):
        payload = {
            "minus": _subspace_report(P, span[0]),
            "plus": _subspace_report(P, span[1]),
            "rank": span[0].rank + span[1].rank,
        }
    else:
        payload = _subspace_report(P, span)
    payload["structure"] = args.structure
    payload["max_len"] = args.max_len
    return EXIT_OK, {"oracle": payload}


def _cmd_certify(P, args):
    cert = certs.certify(P, args.claim, args)
    return _VERDICT_EXIT[cert.verdict], {"certificates": [cert.to_json_dict()]}


def run_cli(argv=None):
    """Parse argv, run a subcommand, print the report. Returns the exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        if args.command == "build":
            code, result = _cmd_build(args)
            input_sha = None
        else:
            try:
                with open(args.file, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise CliInputError(f"cannot read {args.file}: {exc}") from None
            # The hash describes the very bytes that were parsed.
            P = loads_presentation(data)
            input_sha = hashlib.sha256(data).hexdigest()
            handler = {
                "validate": _cmd_validate,
                "decompose": _cmd_decompose,
                "closure": _cmd_closure,
                "oracle": _cmd_oracle,
                "certify": _cmd_certify,
            }[args.command]
            code, result = handler(P, args)
        report = {
            "command": argv,
            "input_sha256": input_sha,
            "tool_version": __version__,
            "wall_time_s": round(time.monotonic() - started, 6),
            "result": result,
        }
        text = canonical_json(report)
        output = getattr(args, "output", None)
        if args.command == "build":
            output = None  # -o already holds the built algebra file
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (AlgcertError, OSError) as exc:
        # Reads are already CliInputErrors: an OSError here is a write to -o.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
