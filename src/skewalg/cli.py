"""Command-line front end.

Exit codes: 0 success/pass, 1 mathematical fail (a claim did not hold or a
polynomial is not a member), 2 usage error, 3 resource limit exceeded.
Config fields can come from SKEWALG_* environment variables; flags win.
Check names and check parameters are validated by the library (verify),
variety names against variety.VARIETIES; a ValueError or OSError is a
usage error.
"""

import argparse
import json
import sys

from .config import Config, ResourceLimitError
from .family import basea_count, fm, n_bound
from .poly import MultiPoly, format_poly, parse_identity_file, parse_poly, parse_word
from .symmetrize import skew
from .variety import VARIETIES, builtin_variety, component_dimension, is_member
from .verify import CHECKS, DESK_SUITE, Report, verify
from .words import format_word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_VERIFY_PARAMS = ("m", "k", "d")
_VERIFY_FLAGS = tuple("--" + key for key in _VERIFY_PARAMS)


def _parse_multidegree(text: str) -> dict:
    try:
        exps = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("multidegree must be ints like 3,1,1")
    if not exps or any(e < 1 for e in exps):
        raise argparse.ArgumentTypeError("multidegree entries must be positive")
    return {i + 1: e for i, e in enumerate(exps)}


def _load_variety(args):
    polys = None
    if args.identities is not None:
        with open(args.identities) as fh:
            polys = parse_identity_file(fh.read())
    return builtin_variety(args.variety, polys)


def _emit(config, text_line: str, payload: dict):
    if config.output_format == "json":
        print(json.dumps(payload, indent=1))
    else:
        print(text_line)


def _report_lines(report: Report) -> str:
    extras = ", ".join(f"{k}={v}" for k, v in report.details.items())
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    head = f"{report.verdict:14s} {report.check} {params}".rstrip()
    return f"{head}  ({report.elapsed_ms} ms)" + (f"  [{extras}]" if extras else "")


def cmd_fm(args, config):
    p = fm(args.m)
    _emit(config, format_poly(p), {"command": "fm", "m": args.m,
                                   "polynomial": format_poly(p),
                                   "terms": len(p), "n_bound_hint": n_bound(args.m)})
    return EXIT_OK


def cmd_skew(args, config):
    w = parse_word(args.word)
    p = skew(MultiPoly.monomial(w))
    _emit(config, format_poly(p), {"command": "skew", "word": args.word,
                                   "polynomial": format_poly(p), "terms": len(p)})
    return EXIT_OK


def cmd_dim(args, config):
    variety = _load_variety(args)
    d = component_dimension(variety, args.multideg, config)
    md = {f"x{v}": e for v, e in sorted(args.multideg.items())}
    _emit(config, str(d), {"command": "dim", "variety": variety.name,
                           "multidegree": md, "dimension": d})
    return EXIT_OK


def cmd_member(args, config):
    variety = _load_variety(args)
    with open(args.input) as fh:
        p = parse_poly(fh.read())
    result = is_member(p, variety, config)
    payload = {"command": "member", "variety": variety.name,
               "member": result.member}
    if result.member:
        certs, paths = result.certificates, []
        if args.certify:
            if len(certs) == 1:
                paths = [args.certify]
            else:
                stem = args.certify.removesuffix(".json")
                paths = [f"{stem}-{i}.json" for i in range(len(certs))]
            for path, cert in zip(paths, certs):
                cert.write(path, variety)
        payload["certificates"] = paths
        _emit(config, "member", payload)
        return EXIT_OK
    payload["witness"] = format_word(result.witness)
    _emit(config, f"not a member (witness word {payload['witness']})", payload)
    return EXIT_FAIL


def cmd_basis_count(args, config):
    n = basea_count(args.degree)
    _emit(config, str(n), {"command": "basis-count", "degree": args.degree,
                           "count": n})
    return EXIT_OK


def _verdict_exit(reports) -> int:
    if any(r.verdict == "fail" for r in reports):
        return EXIT_FAIL
    if any(r.verdict == "resource_limit" for r in reports):
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_verify(args, config):
    params = {key: getattr(args, key) for key in _VERIFY_PARAMS
              if getattr(args, key) is not None}
    if args.all_desk:
        if args.check or params:
            raise ValueError(f"--all-desk takes no CHECK, {', '.join(_VERIFY_FLAGS[:-1])}"
                             f" or {_VERIFY_FLAGS[-1]}")
        reports = []
        for name, desk_params in DESK_SUITE:
            report = verify(name, desk_params, config)
            reports.append(report)
            if config.output_format != "json":
                print(_report_lines(report))
        if config.output_format == "json":
            print(json.dumps([r.to_json() for r in reports], indent=1))
        return _verdict_exit(reports)
    if not args.check:
        raise ValueError("verify needs a CHECK name or --all-desk")
    report = verify(args.check, params, config)
    _emit(config, _report_lines(report), report.to_json())
    return _verdict_exit([report])


def build_parser() -> argparse.ArgumentParser:
    # Global flags go before or after the subcommand.  Their defaults are
    # suppressed, so a subcommand not given a flag keeps the earlier value;
    # each dest is the Config field it sets.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--format", dest="output_format", choices=("text", "json"),
                        help="output format (default text)")
    common.add_argument("--max-ambient", dest="max_ambient_dimension", type=int, metavar="N",
                        help="largest allowed ambient component dimension")
    common.add_argument("--max-generators", type=int, metavar="N",
                        help="largest allowed consequence-generator stream")
    common.add_argument("--seed", dest="random_seed", type=int, metavar="N",
                        help="seed for sampled checks")
    common.add_argument("--cert-dir", dest="certificate_directory", metavar="DIR",
                        help="directory for certificate files (default: write none)")
    ap = argparse.ArgumentParser(
        prog="skewalg",
        allow_abbrev=False,
        parents=[common],
        description="Exact computations with skew-symmetric identities in "
                    "free nonassociative algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fm", parents=[common],
                       help="print the alternating family member of degree M")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_fm)

    p = sub.add_parser("skew", parents=[common],
                       help="skew-symmetrize a one-variable word")
    p.add_argument("--word", required=True, metavar="W",
                   help="for example '((x1*x1)*x1)'")
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("dim", parents=[common],
                       help="dimension of a relatively free component")
    p.add_argument("--variety", required=True, choices=VARIETIES)
    p.add_argument("--multideg", required=True, type=_parse_multidegree,
                   metavar="D", help="comma exponents, for example 3,1,1")
    p.add_argument("--identities", metavar="FILE",
                   help="identity file for --variety custom")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("member", parents=[common],
                       help="T-ideal membership with certificate")
    p.add_argument("--variety", required=True, choices=VARIETIES)
    p.add_argument("--input", required=True, metavar="FILE",
                   help="polynomial file in the text grammar")
    p.add_argument("--certify", metavar="PATH",
                   help="write the certificate JSON here")
    p.add_argument("--identities", metavar="FILE")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("basis-count", parents=[common],
                       help="catalogue count for one-generator elements")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_basis_count)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named check or the desk suite")
    p.add_argument("check", nargs="?", metavar="CHECK",
                   help=f"one of: {', '.join(sorted(CHECKS))}")
    for flag in _VERIFY_FLAGS:  # argparse names each dest by its key
        p.add_argument(flag, type=int)
    p.add_argument("--all-desk", action="store_true",
                   help="run the full desk-scale acceptance suite")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    given = vars(args)
    try:
        config = Config.from_env(**{f: given.get(f) for f in Config._fields})
        return args.func(args, config)
    except (OSError, ValueError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
