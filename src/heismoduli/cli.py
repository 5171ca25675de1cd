"""Command-line front end: every computation on JSON inputs.

Commands read a JSON payload from --input or stdin and print JSON (or
``--format text``) to stdout.  Exit codes: 0 success or certified,
1 computed negative verdict, 2 invalid input, 3 enumeration budget
exceeded.  Randomized commands require an explicit --seed so output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import compactness, heisenberg, lattice
from .errors import EnumerationBudgetExceeded, HeisError
from .linalg import (
    SpdMatrix,
    determinant,
    matrix_from_json,
    matrix_to_json,
    scalar_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _read_payload(path: str | None):
    if path is None or path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _parse_scalar(text: str):
    """Accept 'p/q', integers and decimal literals; keep them exact."""
    return Fraction(text)


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _family_from_payload(obj) -> list:
    if isinstance(obj, dict) and "members" in obj:
        obj = obj["members"]
    if not isinstance(obj, list):
        raise ValueError("expected a list of members or {'members': [...]}")
    return obj


def _fmt_scalar(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(float(x))


def cmd_invariants(args) -> int:
    metric = heisenberg.NormalizedMetric.from_json(_read_payload(args.input))
    m_r = lattice.first_minimum_r(metric.h, metric.r).value
    det_h = determinant(metric.h)
    spectrum = heisenberg.d_spectrum(metric.h)
    bound = heisenberg.curvature_upper_bound(metric)
    payload = {
        "m_r": scalar_to_json(m_r),
        "det_h": scalar_to_json(det_h),
        "d": list(spectrum.d),
        "curvature_upper_bound": bound,
        "g": scalar_to_json(metric.g),
        "r": list(metric.r.r),
    }
    _emit(payload, args.format, [
        f"m_r = {_fmt_scalar(m_r)}",
        f"det(h) = {_fmt_scalar(det_h)}",
        "d = (" + ", ".join(repr(v) for v in spectrum.d) + ")",
        f"curvature bound = {bound!r}",
    ])
    return EXIT_OK


def cmd_shortest_vector(args) -> int:
    Y = SpdMatrix(matrix_from_json(_read_payload(args.input)))
    res = lattice.first_minimum(Y)
    _emit(res.to_json(), args.format, [
        f"value = {_fmt_scalar(res.value)}",
        "witness = (" + ", ".join(str(x) for x in res.witness) + ")",
    ])
    return EXIT_OK


def cmd_reduce(args) -> int:
    Y = SpdMatrix(matrix_from_json(_read_payload(args.input)))
    reduced, U = lattice.minkowski_reduce(Y)
    payload = {
        "reduced": matrix_to_json(reduced),
        "unimodular": [list(r) for r in U.entries],
    }
    _emit(payload, args.format, [
        "reduced = " + json.dumps(payload["reduced"]["entries"]),
        "unimodular = " + json.dumps(payload["unimodular"]),
    ])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    Y = SpdMatrix(matrix_from_json(_read_payload(args.input)))
    spectrum = heisenberg.d_spectrum(Y)
    _emit({"d": list(spectrum.d)}, args.format,
          ["d = (" + ", ".join(repr(v) for v in spectrum.d) + ")"])
    return EXIT_OK


def cmd_heis_type(args) -> int:
    metric = heisenberg.NormalizedMetric.from_json(_read_payload(args.input))
    verdict = heisenberg.is_heisenberg_type(metric, args.tol)
    spectrum = heisenberg.d_spectrum(metric.h)
    payload = {"heisenberg_type": verdict, "d": list(spectrum.d)}
    _emit(payload, args.format,
          [("Heisenberg type" if verdict else "not Heisenberg type")])
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_curvature_bound(args) -> int:
    metric = heisenberg.NormalizedMetric.from_json(_read_payload(args.input))
    bound = heisenberg.curvature_upper_bound(metric)
    _emit({"curvature_upper_bound": bound}, args.format,
          [f"curvature bound = {bound!r}"])
    return EXIT_OK


def cmd_certify(args) -> int:
    members = [heisenberg.NormalizedMetric.from_json(o)
               for o in _family_from_payload(_read_payload(args.input))]
    family = compactness.MetricFamily(tuple(members))
    interval = None
    if args.g_min is not None or args.g_max is not None:
        if args.g_min is None or args.g_max is None:
            raise ValueError("--g-min and --g-max must be given together")
        interval = (args.g_min, args.g_max)
    if args.heisenberg_type:
        cert = compactness.heisenberg_type_certificate(
            family, C0=args.C0, I=interval, tol=args.tol
        )
    else:
        cert = compactness.heisenberg_certificate(
            family, C0=args.C0, C1=args.C1, C2=args.C2, I=interval
        )
    _emit(cert.to_json(), args.format, _certificate_lines(cert))
    return EXIT_OK if cert.certified else EXIT_NEGATIVE


def cmd_certify_torus(args) -> int:
    members = [SpdMatrix(matrix_from_json(o))
               for o in _family_from_payload(_read_payload(args.input))]
    cert = compactness.mahler_certificate(members, C0=args.C0, C1=args.C1)
    _emit(cert.to_json(), args.format, _certificate_lines(cert))
    return EXIT_OK if cert.certified else EXIT_NEGATIVE


def _certificate_lines(cert) -> list[str]:
    lines = [f"verdict: {cert.verdict}"]
    lines.append(f"c0 (min first minimum) = {_fmt_scalar(cert.c0)}")
    lines.append(f"c1 (max determinant) = {_fmt_scalar(cert.c1)}")
    if cert.c2 is not None:
        lines.append(f"c2 (max d_n) = {_fmt_scalar(cert.c2)}")
    if cert.g_interval is not None:
        lines.append(
            "g interval = ["
            + ", ".join(_fmt_scalar(v) for v in cert.g_interval) + "]"
        )
    return lines


def cmd_counterexample(args) -> int:
    if args.k < 0:
        raise ValueError("k must be non-negative")
    if args.sweep:
        rows = []
        for k in range(args.k + 1):
            Y = compactness.counterexample_family(k)
            det = determinant(Y)
            m = lattice.first_minimum(Y).value
            d1, d2 = heisenberg.d_spectrum(Y).d
            rows.append({
                "k": k,
                "det": scalar_to_json(det),
                "m": scalar_to_json(m),
                "d1": d1,
                "d2": d2,
            })
        _emit({"sweep": rows}, args.format, [
            "k det m d1 d2",
            *(f"{r['k']} {r['det']} {r['m']} {r['d1']!r} {r['d2']!r}" for r in rows),
        ])
        return EXIT_OK
    Y = compactness.counterexample_family(args.k)
    payload = matrix_to_json(Y)
    _emit(payload, args.format, [json.dumps([[int(Fraction(x)) for x in row]
                                             for row in payload["entries"]])])
    return EXIT_OK


def cmd_verify_inequality(args) -> int:
    if args.bhatia:
        result = compactness.bhatia_sweep(args.dim, args.samples, args.seed)
    else:
        result = compactness.key_inequality_sweep(args.dim, args.samples, args.seed)
    payload = {
        "samples": result.total,
        "held": result.held,
        "worst_slack": result.worst_slack,
    }
    _emit(payload, args.format, [f"{result.held}/{result.total} hold"])
    return EXIT_OK if result.all_hold else EXIT_NEGATIVE


def cmd_random_symplectic(args) -> int:
    if args.dim % 2:
        raise ValueError("--dim must be even")
    beta = compactness.random_symplectic_integer(args.dim // 2, args.seed, args.steps)
    eps = heisenberg.symplectic_similitude_check(beta)
    payload = {"matrix": matrix_to_json(beta), "epsilon": eps}
    _emit(payload, args.format, [
        json.dumps([[int(Fraction(x)) for x in row]
                    for row in payload["matrix"]["entries"]]),
        f"epsilon = {eps}",
    ])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heis",
        description="Lattice minima, symplectic spectra and precompactness "
                    "certificates for normalized Heisenberg metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_file=True):
        if input_file:
            p.add_argument("--input", default=None,
                           help="path to a JSON payload (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="relative tolerance for float comparisons")

    p = sub.add_parser("invariants", help="first minimum, determinant, spectrum, curvature bound")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("shortest-vector", help="first minimum with witness")
    common(p)
    p.set_defaults(func=cmd_shortest_vector)

    p = sub.add_parser("reduce", help="Minkowski reduction")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("spectrum", help="symplectic spectrum d_1..d_n")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("heis-type", help="test for constant symplectic spectrum")
    common(p)
    p.set_defaults(func=cmd_heis_type)

    p = sub.add_parser("curvature-bound", help="upper bound for sectional curvature")
    common(p)
    p.set_defaults(func=cmd_curvature_bound)

    p = sub.add_parser("certify", help="certificate for a family of normalized metrics")
    common(p)
    p.add_argument("--C0", type=_parse_scalar, default=None)
    p.add_argument("--C1", type=_parse_scalar, default=None)
    p.add_argument("--C2", type=_parse_scalar, default=None)
    p.add_argument("--g-min", type=_parse_scalar, default=None)
    p.add_argument("--g-max", type=_parse_scalar, default=None)
    p.add_argument("--heisenberg-type", action="store_true",
                   help="require constant spectrum and derive C1, C2")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("certify-torus", help="certificate for a family of Gram matrices")
    common(p)
    p.add_argument("--C0", type=_parse_scalar, default=None)
    p.add_argument("--C1", type=_parse_scalar, default=None)
    p.set_defaults(func=cmd_certify_torus)

    p = sub.add_parser("counterexample", help="unit-determinant family with growing d_2")
    common(p, input_file=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", action="store_true",
                   help="print (k, det, m, d1, d2) for k = 0..K")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("verify-inequality", help="seeded random inequality sweep")
    common(p, input_file=False)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, help="matrix size 2n")
    p.add_argument("--bhatia", action="store_true",
                   help="check the singular-value product inequality instead")
    p.set_defaults(func=cmd_verify_inequality)

    p = sub.add_parser("random-symplectic", help="deterministic integer similitude")
    common(p, input_file=False)
    p.add_argument("--dim", type=int, required=True, help="matrix size 2n")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=12)
    p.set_defaults(func=cmd_random_symplectic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HeisError, ValueError, KeyError, TypeError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
