"""Command-line front end: every computation on JSON inputs.

Commands read a JSON payload from --input or stdin and print JSON (or
``--format text``) to stdout.  ``main`` returns the exit code, for
usage errors too: 0 success or certified, 1 computed negative verdict,
2 invalid input, 3 enumeration budget exceeded.  Randomized commands
require an explicit --seed so output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import compactness, heisenberg, lattice
from .errors import EnumerationBudgetExceeded, HeisError
from .linalg import (
    RATIONAL,
    SpdMatrix,
    determinant,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _read_payload(path: str | None):
    """The JSON of stdin, or of a file read in one call and decoded as
    strict UTF-8 (``json.loads`` of bytes would also take UTF-16 and a BOM)."""
    if path is None or path == "-":
        return json.load(sys.stdin)
    with open(path, "rb", buffering=0) as fh:
        return json.loads(fh.read().decode())


def _parse_scalar(text: str):
    """Accept 'p/q', integers and decimal literals; keep them exact.

    Raises ``ValueError`` on any other text, a zero denominator included,
    so argparse reports it as a usage error."""
    return scalar_from_json(text, RATIONAL)


def _parse_tol(text: str) -> float:
    """A finite nonnegative float; argparse reports anything else as a
    usage error."""
    try:
        return heisenberg._tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_encode = json.JSONEncoder().encode  # no indent: the C encoder


def _layout(value, pad: str, leaves: list) -> str:
    """value's indented text, pad its line break and indent, with a NUL in
    place of each leaf that is not a string, appended to leaves in order.
    The encoder escapes a NUL in a string, so a raw NUL marks a leaf."""
    if isinstance(value, str):
        return _encode(value)
    if value and isinstance(value, (dict, list, tuple)):
        inner = pad + "  "
        if isinstance(value, dict):
            ends, items = "{}", [_encode(k) + ": " + _layout(v, inner, leaves)
                                 for k, v in value.items()]
        else:
            ends, items = "[]", [_layout(v, inner, leaves) for v in value]
        return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]
    leaves.append(value)
    return "\0"


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2)`` (string keys) through the C
    encoder; the stdlib's indented path is pure Python and leaves cyclic
    garbage.  No number, true, false, null, {} or [] holds ", ", so one
    compact encoding of all such leaves splits back into them."""
    leaves = []
    pieces = _layout(payload, "\n", leaves).split("\0")
    texts = _encode(leaves)[1:-1].split(", ")
    return "".join([p + t for p, t in zip(pieces, texts + [""])])


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(_dumps(payload))
    else:
        for line in text_lines():
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
    metric = heisenberg.NormalizedMetric.from_json(_read_payload(args.input), {})
    m_r = lattice.first_minimum_r(metric.h, metric.r).value
    det_h = determinant(metric.h)
    spectrum = heisenberg.d_spectrum(metric.h)
    bound = heisenberg._curvature_bound(spectrum, metric.g)
    payload = {
        "m_r": scalar_to_json(m_r),
        "det_h": scalar_to_json(det_h),
        "d": list(spectrum.d),
        "curvature_upper_bound": bound,
        "g": scalar_to_json(metric.g),
        "r": list(metric.r.r),
    }
    _emit(payload, args.format, lambda: [
        f"m_r = {_fmt_scalar(m_r)}",
        f"det(h) = {_fmt_scalar(det_h)}",
        "d = (" + ", ".join(repr(v) for v in spectrum.d) + ")",
        f"curvature bound = {bound!r}",
    ])
    return EXIT_OK


def cmd_shortest_vector(args) -> int:
    Y = SpdMatrix(matrix_from_json(_read_payload(args.input)))
    res = lattice.first_minimum(Y)
    _emit(res.to_json(), args.format, lambda: [
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
    _emit(payload, args.format, lambda: [
        "reduced = " + json.dumps(payload["reduced"]["entries"]),
        "unimodular = " + json.dumps(payload["unimodular"]),
    ])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    Y = SpdMatrix(matrix_from_json(_read_payload(args.input)))
    spectrum = heisenberg.d_spectrum(Y)
    _emit({"d": list(spectrum.d)}, args.format,
          lambda: ["d = (" + ", ".join(repr(v) for v in spectrum.d) + ")"])
    return EXIT_OK


def cmd_heis_type(args) -> int:
    metric = heisenberg.NormalizedMetric.from_json(_read_payload(args.input))
    spectrum = heisenberg.d_spectrum(metric.h)
    verdict = heisenberg._is_heisenberg_spectrum(spectrum, metric.g, args.tol)
    payload = {"heisenberg_type": verdict, "d": list(spectrum.d)}
    _emit(payload, args.format,
          lambda: [("Heisenberg type" if verdict else "not Heisenberg type")])
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_curvature_bound(args) -> int:
    metric = heisenberg.NormalizedMetric.from_json(_read_payload(args.input))
    bound = heisenberg.curvature_upper_bound(metric)
    _emit({"curvature_upper_bound": bound}, args.format,
          lambda: [f"curvature bound = {bound!r}"])
    return EXIT_OK


def cmd_certify(args) -> int:
    scalars = {}
    members = [heisenberg.NormalizedMetric.from_json(o, scalars)
               for o in _family_from_payload(_read_payload(args.input))]
    family = compactness.MetricFamily(tuple(members))
    interval = None
    if args.g_min is not None or args.g_max is not None:
        if args.g_min is None or args.g_max is None:
            raise ValueError("--g-min and --g-max must be given together")
        interval = (args.g_min, args.g_max)
    if args.heisenberg_type:
        if args.C1 is not None or args.C2 is not None:
            raise ValueError("--C1 and --C2 are derived with --heisenberg-type")
        cert = compactness.heisenberg_type_certificate(
            family, C0=args.C0, I=interval, tol=args.tol
        )
    else:
        cert = compactness.heisenberg_certificate(
            family, C0=args.C0, C1=args.C1, C2=args.C2, I=interval
        )
    _emit(cert.to_json(), args.format, lambda: _certificate_lines(cert))
    return EXIT_OK if cert.certified else EXIT_NEGATIVE


def cmd_certify_torus(args) -> int:
    scalars = {}
    members = [SpdMatrix(matrix_from_json(o, scalars))
               for o in _family_from_payload(_read_payload(args.input))]
    cert = compactness.mahler_certificate(members, C0=args.C0, C1=args.C1)
    _emit(cert.to_json(), args.format, lambda: _certificate_lines(cert))
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
    last = compactness.counterexample_family(args.k)  # checks k for both branches
    if args.sweep:
        rows = []
        family = [*map(compactness.counterexample_family, range(args.k)), last]
        for k, (Y, spectrum) in enumerate(zip(family, heisenberg._d_spectra(family))):
            det = determinant(Y)
            m = lattice.first_minimum(Y).value
            d1, d2 = spectrum.d
            rows.append({
                "k": k,
                "det": scalar_to_json(det),
                "m": scalar_to_json(m),
                "d1": d1,
                "d2": d2,
            })
        _emit({"sweep": rows}, args.format, lambda: [
            "k det m d1 d2",
            *(f"{r['k']} {r['det']} {r['m']} {r['d1']!r} {r['d2']!r}" for r in rows),
        ])
        return EXIT_OK
    payload = matrix_to_json(last)
    _emit(payload, args.format, lambda: [json.dumps([[int(Fraction(x)) for x in row]
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
    _emit(payload, args.format, lambda: [f"{result.held}/{result.total} hold"])
    return EXIT_OK if result.all_hold else EXIT_NEGATIVE


def cmd_random_symplectic(args) -> int:
    if args.dim % 2:
        raise ValueError("--dim must be even")
    beta = compactness.random_symplectic_integer(args.dim // 2, args.seed, args.steps)
    eps = heisenberg.symplectic_similitude_check(beta)
    payload = {"matrix": matrix_to_json(beta), "epsilon": eps}
    _emit(payload, args.format, lambda: [
        json.dumps([[int(Fraction(x)) for x in row]
                    for row in payload["matrix"]["entries"]]),
        f"epsilon = {eps}",
    ])
    return EXIT_OK


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="heis",
        description="Lattice minima, symplectic spectra and precompactness "
                    "certificates for normalized Heisenberg metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_file=True, tol=False):
        if input_file:
            p.add_argument("--input", default=None,
                           help="path to a JSON payload (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if tol:  # only the commands that read args.tol take it
            p.add_argument("--tol", type=_parse_tol, default=1e-8,
                           help="relative tolerance for float comparisons")

    p = sub.add_parser("invariants", help="first minimum, determinant, spectrum, curvature bound")
    common(p)

    p = sub.add_parser("shortest-vector", help="first minimum with witness")
    common(p)

    p = sub.add_parser("reduce", help="Minkowski reduction")
    common(p)

    p = sub.add_parser("spectrum", help="symplectic spectrum d_1..d_n")
    common(p)

    p = sub.add_parser("heis-type", help="test for constant symplectic spectrum")
    common(p, tol=True)

    p = sub.add_parser("curvature-bound", help="upper bound for sectional curvature")
    common(p)

    p = sub.add_parser("certify", help="certificate for a family of normalized metrics")
    common(p, tol=True)
    p.add_argument("--C0", type=_parse_scalar, default=None)
    p.add_argument("--C1", type=_parse_scalar, default=None)
    p.add_argument("--C2", type=_parse_scalar, default=None)
    p.add_argument("--g-min", type=_parse_scalar, default=None)
    p.add_argument("--g-max", type=_parse_scalar, default=None)
    p.add_argument("--heisenberg-type", action="store_true",
                   help="require constant spectrum and derive C1, C2")

    p = sub.add_parser("certify-torus", help="certificate for a family of Gram matrices")
    common(p)
    p.add_argument("--C0", type=_parse_scalar, default=None)
    p.add_argument("--C1", type=_parse_scalar, default=None)

    p = sub.add_parser("counterexample", help="unit-determinant family with growing d_2")
    common(p, input_file=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", action="store_true",
                   help="print (k, det, m, d1, d2) for k = 0..K")

    p = sub.add_parser("verify-inequality", help="seeded random inequality sweep")
    common(p, input_file=False)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, help="matrix size 2n")
    p.add_argument("--bhatia", action="store_true",
                   help="check the singular-value product inequality instead")

    p = sub.add_parser("random-symplectic", help="deterministic integer similitude")
    common(p, input_file=False)
    p.add_argument("--dim", type=int, required=True, help="matrix size 2n")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=12)

    return parser, sub.choices  # choices: the subparsers action's map


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


_parser = functools.cache(_build_parsers)


def main(argv=None) -> int:
    parser, commands = _parser()
    try:
        # with argv[0] a command, its subparser parses the rest, as argparse
        # would; anything else (sys.argv too) or left over goes to the full
        # parser, so every help text, usage error and exit code is its own
        sub = commands.get(argv[0]) if argv else None
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
        if sub and not rest:
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse has reported
        return exc.code
    # looked up at call time, so a replaced cmd_* function takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HeisError, ValueError, KeyError, TypeError, OverflowError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
