import gc
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import heismoduli as hm
from conftest import skewed_unit_lattice
from heismoduli.cli import main

GOLDEN_CASES = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())["cases"]


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def identity_metric_json(n=2, g=1):
    return json.dumps({
        "h": hm.matrix_to_json(hm.identity(2 * n)),
        "g": g,
        "r": [1] * n,
    })


class TestCounterexampleCommand:
    def test_single_matrix_json(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--k", "1"])
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"] == [
            ["1", "1", "0", "0"],
            ["1", "2", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]

    def test_sweep_table(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--k", "3", "--sweep"])
        assert code == 0
        rows = json.loads(out)["sweep"]
        assert [r["k"] for r in rows] == [0, 1, 2, 3]
        assert all(r["det"] == "1" and r["m"] == "1" for r in rows)
        assert rows[1]["d2"] == pytest.approx(1.6180339887, abs=1e-9)

    def test_sweep_spectra_are_one_stack(self, capsys, monkeypatch):
        # the k + 1 spectra come from one stacked SVD, each the bits that
        # d_spectrum gives the member alone
        real, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        code, out, err = run(capsys, ["counterexample", "--k", "40", "--sweep"])
        assert code == 0 and err == ""
        assert calls == [(41, 4, 4)]
        monkeypatch.undo()
        for row in json.loads(out)["sweep"]:
            d = hm.d_spectrum(hm.counterexample_family(row["k"])).d
            assert (row["d1"], row["d2"]) == d


class TestInvariantsCommand:
    def test_flat_metric(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["invariants"], stdin=identity_metric_json(),
                           monkeypatch=monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["m_r"] == "1"
        assert obj["det_h"] == "1"
        assert obj["d"] == [1.0, 1.0]
        assert obj["curvature_upper_bound"] == 1.0

    def test_text_format(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["invariants", "--format", "text"],
                           stdin=identity_metric_json(), monkeypatch=monkeypatch)
        assert code == 0
        assert "m_r = 1" in out

    def test_float_m_r_rounded_once(self, capsys, monkeypatch):
        # the exact minimum of the given entries, 9 * 0.1, rounds to 0.9;
        # the float product 0.1 * 3 * 3 is 0.9000000000000001
        payload = json.dumps({"h": {"mode": "float", "rows": 2, "cols": 2,
                                    "entries": [[0.1, 0.01], [0.01, 50.0]]}, "g": 1, "r": [3]})
        code, out, _ = run(capsys, ["invariants", "--format", "text"], stdin=payload,
                           monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines()[0] == "m_r = 0.9"


class TestSpectrumAndVectorCommands:
    def test_shortest_vector(self, capsys, monkeypatch):
        payload = json.dumps(hm.matrix_to_json(
            hm.SpdMatrix.from_rows([[2, 1], [1, 2]])
        ))
        code, out, _ = run(capsys, ["shortest-vector"], stdin=payload,
                           monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out) == {"value": "2", "witness": [1, 0]}

    def test_spectrum(self, capsys, monkeypatch):
        payload = json.dumps(hm.matrix_to_json(hm.counterexample_family(1)))
        code, out, _ = run(capsys, ["spectrum"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        d = json.loads(out)["d"]
        assert d[1] == pytest.approx(1.6180339887)

    def test_spectrum_of_float_gram_past_float_cholesky(self, capsys, monkeypatch):
        payload = json.dumps({"mode": "float", "rows": 2, "cols": 2,
                              "entries": [[3.0, 5.0], [5.0, 8.333333333333334]]})
        code, out, _ = run(capsys, ["spectrum"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["d"] == pytest.approx([2**24.5], rel=1e-14)

    def test_reduce(self, capsys, monkeypatch):
        payload = json.dumps(hm.matrix_to_json(hm.SpdMatrix.from_rows([[5, 3], [3, 2]])))
        code, out, _ = run(capsys, ["reduce"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["reduced"]["entries"] == [["1", "0"], ["0", "1"]]

    def test_reduce_of_float_gram_past_float_cholesky(self, capsys, monkeypatch):
        # badly reduced: the minimum 5.3e-15, along (5, -3), lies far below y_11 = 3
        payload = json.dumps({"mode": "float", "rows": 2, "cols": 2,
                              "entries": [[3.0, 5.0], [5.0, 8.333333333333334]]})
        code, out, _ = run(capsys, ["reduce"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["reduced"]["entries"][0][0] == 5.329070518200751e-15
        assert obj["unimodular"] == [[5, 2], [-3, -1]]

    def test_reduce_of_skewed_unit_lattice_under_default_budget(self, capsys, monkeypatch):
        # Z^4 in a skewed basis, reduced under the default budget: no
        # environment budget may stand in for it
        monkeypatch.delenv(hm.lattice.BUDGET_ENV_VAR, raising=False)
        gram = skewed_unit_lattice(4, 60, 2)[1]
        payload = json.dumps(hm.matrix_to_json(hm.SpdMatrix.from_rows(gram)))
        code, out, _ = run(capsys, ["reduce"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        obj = json.loads(out)
        identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
        assert obj["reduced"]["entries"] == identity
        U = hm.UnimodularMatrix(tuple(map(tuple, obj["unimodular"])))
        assert hm.congruence(hm.DenseMatrix.from_rows(gram), U.matrix()).entries \
            == hm.identity(4).entries

    def test_heis_type_negative_exit(self, capsys, monkeypatch):
        payload = json.dumps({
            "h": hm.matrix_to_json(hm.counterexample_family(1)),
            "g": 1,
            "r": [1, 1],
        })
        code, out, _ = run(capsys, ["heis-type"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["heisenberg_type"] is False

    def test_curvature_bound(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["curvature-bound"],
                           stdin=identity_metric_json(g=4), monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["curvature_upper_bound"] == pytest.approx(0.25)


class TestCertifyCommands:
    def test_certify_torus_certified(self, capsys, monkeypatch):
        members = [hm.matrix_to_json(hm.counterexample_family(k)) for k in range(6)]
        code, out, _ = run(capsys,
                           ["certify-torus", "--C0", "1", "--C1", "1"],
                           stdin=json.dumps(members), monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_certify_spectrum_violation(self, capsys, monkeypatch):
        members = [{
            "h": hm.matrix_to_json(hm.counterexample_family(k)),
            "g": 1,
            "r": [1, 1],
        } for k in range(11)]
        code, out, _ = run(capsys, ["certify", "--C2", "2"],
                           stdin=json.dumps({"members": members}),
                           monkeypatch=monkeypatch)
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "not-certified"
        assert obj["c2"] == pytest.approx(10.0990195, abs=1e-6)

    def test_certify_heisenberg_type(self, capsys, monkeypatch):
        members = [{
            "h": hm.matrix_to_json(hm.identity(4)),
            "g": 1,
            "r": [1, 1],
        }]
        code, out, _ = run(capsys,
                           ["certify", "--heisenberg-type", "--C0", "1",
                            "--g-min", "1", "--g-max", "1"],
                           stdin=json.dumps(members), monkeypatch=monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "certified"
        assert obj["c1"] == "1" and obj["c2"] == 1.0

    @pytest.mark.parametrize("flag", ["--C1", "--C2"])
    def test_heisenberg_type_refuses_the_bounds_it_derives(self, capsys, monkeypatch, flag):
        # h = 2 I_2 with g = 4 is of Heisenberg type, with c1 = 4
        members = [{"h": {"mode": "rational", "rows": 2, "cols": 2,
                          "entries": [["2", "0"], ["0", "2"]]}, "g": "4", "r": [1]}]
        code, out, err = run(capsys, ["certify", "--heisenberg-type", flag, "1/1000"],
                             stdin=json.dumps(members), monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and "derived" in err

    @pytest.mark.parametrize("argv, code, verdict", [
        (["certify", "--C0", "1", "--C1", "1"], 0, "certified"),
        (["certify", "--C2", "2"], 1, "not-certified"),
        (["certify-torus", "--C0", "1", "--C1", "1"], 0, "certified"),
    ])
    def test_counterexample_family_runs_no_enumeration(self, capsys, monkeypatch, argv, code,
                                                       verdict):
        # every member's first minimum is proved by its factor: y_11 is its least pivot
        grams = [hm.matrix_to_json(hm.counterexample_family(k)) for k in range(11)]
        payload = json.dumps(grams if argv[0] == "certify-torus"
                             else [{"h": h, "g": 1, "r": [1, 1]} for h in grams])
        usual = run(capsys, argv, stdin=payload, monkeypatch=monkeypatch)
        assert usual[0] == code and usual[2] == ""
        assert json.loads(usual[1])["verdict"] == verdict

        def no_search(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(hm.lattice, "_short_vectors", no_search)
        assert run(capsys, argv, stdin=payload, monkeypatch=monkeypatch) == usual


class TestThresholdsNeverDropped:
    """A threshold flag either shows in the JSON thresholds or exits 2."""

    FAMILY = json.dumps([json.loads(identity_metric_json())])
    COMMANDS = {
        "certify": (["certify"], FAMILY),
        "certify-heisenberg-type": (["certify", "--heisenberg-type"], FAMILY),
        "certify-torus": (["certify-torus"], json.dumps([hm.matrix_to_json(hm.identity(4))])),
    }
    FLAGS = {
        "C0": (["--C0", "7/3"], "7/3"),
        "C1": (["--C1", "7/3"], "7/3"),
        "C2": (["--C2", "7/3"], "7/3"),
        "I": (["--g-min", "1/8", "--g-max", "7/3"], ["1/8", "7/3"]),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("key", sorted(FLAGS))
    def test_given_threshold_is_reported_or_refused(self, capsys, monkeypatch, command, key):
        argv, payload = self.COMMANDS[command]
        assert run(capsys, argv, stdin=payload, monkeypatch=monkeypatch)[0] == 0
        flag, value = self.FLAGS[key]
        code, out, _ = run(capsys, [*argv, *flag], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2 or json.loads(out)["thresholds"][key] == value


class TestVerifyInequalityCommand:
    def test_sweep_holds(self, capsys):
        code, out, _ = run(capsys, ["verify-inequality", "--samples", "1000",
                                    "--seed", "7", "--dim", "4", "--format", "text"])
        assert code == 0
        assert out.strip() == "1000/1000 hold"

    def test_bhatia_variant(self, capsys):
        code, out, _ = run(capsys, ["verify-inequality", "--samples", "50",
                                    "--seed", "3", "--dim", "4", "--bhatia"])
        assert code == 0
        assert json.loads(out)["held"] == 50

    def test_odd_dimension_exit_2(self, capsys):
        code, out, err = run(capsys, ["verify-inequality", "--samples", "4",
                                      "--seed", "1", "--dim", "3"])
        assert code == 2
        assert out == "" and err == "error: symplectic spectrum requires even size\n"


class TestRandomSymplecticCommand:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["random-symplectic", "--dim", "4",
                                      "--seed", "11", "--steps", "8"])
        code2, out2, _ = run(capsys, ["random-symplectic", "--dim", "4",
                                      "--seed", "11", "--steps", "8"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["epsilon"] in (1, -1)

    @pytest.mark.parametrize("dim", ["0", "-2"])
    @pytest.mark.parametrize("steps", [[], ["--steps", "0"]])
    def test_empty_dim_exit_2(self, capsys, dim, steps):
        code, out, err = run(capsys, ["random-symplectic", "--dim", dim, "--seed", "1", *steps])
        assert code == 2
        assert out == "" and err == "error: matrix must have at least one row and column\n"


# runs each argv in-process and records whether numpy is loaded, after the
# package's import and after each command; the last command is a control
NUMPY_PROBE = """
import json, sys
import heismoduli
from heismoduli.cli import main
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_lattice_commands_do_not_load_numpy(tmp_path):
    gram = hm.matrix_to_json(hm.counterexample_family(3))
    (tmp_path / "gram.json").write_text(json.dumps(gram))
    (tmp_path / "family.json").write_text(json.dumps([gram, hm.matrix_to_json(hm.identity(4))]))
    commands = [
        ["shortest-vector", "--input", str(tmp_path / "gram.json")],
        ["reduce", "--input", str(tmp_path / "gram.json")],
        ["certify-torus", "--input", str(tmp_path / "family.json"), "--C0", "1/2"],
        ["random-symplectic", "--dim", "4", "--seed", "3"],
        ["counterexample", "--k", "3"],
        ["spectrum", "--input", str(tmp_path / "gram.json")],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hm.__file__)))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    # the import and the five lattice commands: no numpy; a spectrum loads it
    assert json.loads(proc.stdout.splitlines()[-1]) == [False] * 6 + [True]


class TestErrorPaths:
    def test_invalid_json_exit_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["spectrum"], stdin="not json", monkeypatch=monkeypatch)
        assert code == 2
        assert "error" in err

    def test_not_positive_definite_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({
            "mode": "rational", "rows": 2, "cols": 2,
            "entries": [["1", "2"], ["2", "1"]],
        })
        code, _, err = run(capsys, ["shortest-vector"], stdin=payload,
                           monkeypatch=monkeypatch)
        assert code == 2

    def test_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("HEIS_ENUM_BUDGET", "3")
        # pivots 2, 1/2: y_11 is not the least, so the search runs
        payload = json.dumps(hm.matrix_to_json(hm.DenseMatrix.from_rows([[2, 1], [1, 1]])))
        code, _, err = run(capsys, ["shortest-vector"], stdin=payload,
                           monkeypatch=monkeypatch)
        assert code == 3

    @pytest.mark.parametrize("argv, payload", [
        (["shortest-vector"], hm.matrix_to_json(hm.identity(2))),
        (["certify-torus"], [hm.matrix_to_json(hm.identity(2))]),
    ])
    def test_invalid_env_budget_exit_2_without_a_search(self, capsys, monkeypatch, argv,
                                                         payload):
        # the factor proves I_2's first minimum, but the cap is read where
        # the command begins
        monkeypatch.setenv("HEIS_ENUM_BUDGET", "ten")
        code, out, err = run(capsys, argv, stdin=json.dumps(payload), monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err == ("error: HEIS_ENUM_BUDGET must be a nonnegative integer, "
                                     "got 'ten'\n")

    def test_odd_dim_spectrum_exit_2(self, capsys, monkeypatch):
        payload = json.dumps(hm.matrix_to_json(hm.identity(3)))
        code, _, _ = run(capsys, ["spectrum"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--dim", "0", "--samples", "5"],
        ["--dim", "0", "--samples", "5", "--bhatia"],
        ["--dim", "-2", "--samples", "5", "--bhatia"],
        ["--dim", "3", "--samples", "5"],
        ["--dim", "4", "--samples", "0"],
        ["--dim", "4", "--samples", "0", "--bhatia"],
        ["--dim", "4", "--samples", "-1"],
    ])
    def test_bad_sweep_size_exit_2(self, capsys, args):
        code, out, err = run(capsys, ["verify-inequality", "--seed", "1", *args])
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args", [["--k", "-1"], ["--k", "-1", "--sweep"]])
    def test_negative_k_exit_2(self, capsys, args):
        code, out, err = run(capsys, ["counterexample", *args])
        assert code == 2
        assert out == "" and err.startswith("error: ")

    # 10^400 is a valid rational past the float range: a g or Gram entry that
    # large is invalid input for the float spectrum, not a negative verdict
    BIG = "1" + "0" * 400
    BIG_GRAM = {"mode": "rational", "rows": 2, "cols": 2, "entries": [[BIG, "0"], ["0", "1"]]}
    BIG_G = {"h": hm.matrix_to_json(hm.identity(2)), "g": BIG, "r": [1]}

    @pytest.mark.parametrize("argv, payload", [
        (["invariants"], BIG_G), (["curvature-bound"], BIG_G), (["heis-type"], BIG_G),
        (["spectrum"], BIG_GRAM), (["certify", "--heisenberg-type"], [BIG_G]),
    ], ids=["invariants", "curvature-bound", "heis-type", "spectrum", "certify-heis-type"])
    def test_past_float_range_exit_2(self, capsys, monkeypatch, argv, payload):
        code, out, err = run(capsys, argv, stdin=json.dumps(payload), monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    # g = 10^-400 rounds to 0.0, so g^-1 is past the float range; at 10^-320
    # (a subnormal float) only g^-1 d_n^2 is, and heis-type still decides
    TINY_G = {**BIG_G, "g": "1/" + BIG}
    SMALL_G = {**BIG_G, "g": "1/1" + "0" * 320}

    @pytest.mark.parametrize("argv, payload", [
        (["invariants"], TINY_G), (["curvature-bound"], TINY_G), (["heis-type"], TINY_G),
        (["certify", "--heisenberg-type"], [TINY_G]),
        (["invariants"], SMALL_G), (["curvature-bound"], SMALL_G),
    ], ids=["invariants", "curvature-bound", "heis-type", "certify-heis-type",
            "invariants-subnormal", "curvature-bound-subnormal"])
    def test_inverse_g_past_float_range_exit_2(self, capsys, monkeypatch, argv, payload):
        code, out, err = run(capsys, argv, stdin=json.dumps(payload), monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "past the float range" in err

    def test_subnormal_g_heisenberg_verdict(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["heis-type"], stdin=json.dumps(self.SMALL_G),
                           monkeypatch=monkeypatch)
        assert code == 1 and json.loads(out) == {"heisenberg_type": False, "d": [1.0]}

    # an --input file is decoded as strict UTF-8: no BOM, no UTF-16, as
    # when it was read in text mode
    GRAM_TEXT = json.dumps({"mode": "rational", "rows": 2, "cols": 2,
                            "entries": [["2", "1"], ["1", "1"]]}, indent=1)

    @pytest.mark.parametrize("data, err", [
        (b"\xef\xbb\xbf" + GRAM_TEXT.encode(),
         "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
        (GRAM_TEXT.encode("utf-16"),
         "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        (b'{"mode": "rational\xff", "rows": 1, "cols": 1, "entries": [["1"]]}',
         "error: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n"),
        (b'{"mode": "rational", "rows": 0, "entries": []}',
         "error: matrix must have at least one row and column\n"),
        (b'{"mode": "rational", "rows": 1, "entries": [["1"]]}', "error: 'cols'\n"),
        (b'{"mode": "rational", "rows": 2, "cols": 0, "entries": [[], []]}',
         "error: matrix must have at least one row and column\n"),
        (b'{"mode": "rational", "rows": 3, "cols": 2, "entries": [["2", "1"], ["1", "1"]]}',
         "error: matrix entries do not match declared shape\n"),
        (b'{"mode": "rational", "rows": 2, "cols": 2, "entries": ["21", ["1", "1"]]}',
         "error: a matrix row must be a JSON list, got str\n"),
    ], ids=["utf8-bom", "utf16", "invalid-byte", "no-cols-no-entries", "no-cols",
            "no-columns", "rows-differ", "row-not-a-list"])
    def test_input_file_rejected_exit_2(self, capsys, tmp_path, data, err):
        path = tmp_path / "payload.json"
        path.write_bytes(data)
        assert run(capsys, ["shortest-vector", "--input", str(path)]) == (2, "", err)

    def test_input_file_with_crlf_line_ends(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "payload.json"
        path.write_bytes(self.GRAM_TEXT.replace("\n", "\r\n").encode())
        expected = run(capsys, ["shortest-vector"], stdin=self.GRAM_TEXT, monkeypatch=monkeypatch)
        assert expected[0] == 0
        assert run(capsys, ["shortest-vector", "--input", str(path)]) == expected


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, monkeypatch):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["counterexample", "--k", "5", "--sweep"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestSchemaRoundTrips:
    def test_counterexample_matrix_parses(self, capsys):
        _, out, _ = run(capsys, ["counterexample", "--k", "4"])
        Y = hm.SpdMatrix(hm.matrix_from_json(json.loads(out)))
        assert Y.entries == hm.counterexample_family(4).entries

    def test_random_symplectic_parses(self, capsys):
        _, out, _ = run(capsys, ["random-symplectic", "--dim", "4",
                                 "--seed", "2", "--steps", "6"])
        beta = hm.matrix_from_json(json.loads(out)["matrix"])
        assert hm.symplectic_similitude_check(beta) in (1, -1)

    def test_reduce_output_parses(self, capsys, monkeypatch):
        payload = json.dumps(hm.matrix_to_json(hm.SpdMatrix.from_rows([[5, 3], [3, 2]])))
        _, out, _ = run(capsys, ["reduce"], stdin=payload, monkeypatch=monkeypatch)
        obj = json.loads(out)
        reduced = hm.SpdMatrix(hm.matrix_from_json(obj["reduced"]))
        U = hm.UnimodularMatrix(tuple(tuple(r) for r in obj["unimodular"]))
        assert hm.minkowski_membership(reduced).member
        assert U.determinant() in (1, -1)


class TestParserBuiltOnce:
    def test_no_state_between_calls(self, capsys, monkeypatch):
        members = json.dumps([{"h": hm.matrix_to_json(hm.identity(4)), "g": 1, "r": [1, 1]}])
        plain = ["certify", "--C0", "1", "--C1", "1", "--C2", "2"]
        hm.cli._parser.cache_clear()
        first = run(capsys, plain, stdin=members, monkeypatch=monkeypatch)
        typed = run(capsys, ["certify", "--heisenberg-type", "--C0", "1",
                             "--g-min", "1", "--g-max", "1"],
                    stdin=members, monkeypatch=monkeypatch)
        again = run(capsys, plain, stdin=members, monkeypatch=monkeypatch)
        assert first == again
        assert first[1] != typed[1]

    # the arguments a command's subparser leaves over are the full parser's
    # to report, under its own usage line
    @pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"],
                                      [], ["bogus"], ["counterexample"],
                                      ["counterexample", "--k", "x"],
                                      ["invariants", "--tol", "1e-3"],
                                      ["certify", "--bogus"],
                                      ["counterexample", "--k", "2", "extra"],
                                      ["-h", "certify"], ["cert"]])
    def test_help_and_usage_match_a_fresh_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            hm.cli.build_parser().parse_args(argv)
        fresh = (exc.value.code, capsys.readouterr())
        outs = [(main(argv), capsys.readouterr()) for _ in range(2)]
        assert outs[0] == outs[1] == fresh
        assert fresh[0] == (0 if {"-h", "--help"} & set(argv) else 2)

    @pytest.mark.parametrize("argv", sorted({tuple(c["argv"]) for c in GOLDEN_CASES}))
    def test_namespace_matches_the_full_parse(self, monkeypatch, argv):
        full = hm.cli.build_parser().parse_args(list(argv))
        seen = []
        monkeypatch.setattr(hm.cli, "cmd_" + full.command.replace("-", "_"),
                            lambda args: seen.append(args) or 0)
        assert main(list(argv)) == 0
        assert seen == [full]

    def test_replaced_command_takes_effect(self, monkeypatch):
        main(["counterexample", "--k", "0"])  # the parser is built by now
        calls = []
        monkeypatch.setattr(hm.cli, "cmd_invariants", lambda args: calls.append(args) or 7)
        assert main(["invariants", "--input", "x.json"]) == 7
        assert calls[0].input == "x.json"


class TestRejectedInputs:
    @pytest.mark.parametrize("r", [[1.9], [1.5, 3.7], [True], [float("inf")]])
    def test_non_integral_r_exit_2(self, capsys, monkeypatch, r):
        payload = json.dumps({"h": hm.matrix_to_json(hm.identity(2 * len(r))), "g": 1, "r": r})
        code, out, err = run(capsys, ["invariants"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("r", [[None], [[1]], [{}]])
    def test_non_number_r_exit_2_as_not_integers(self, capsys, monkeypatch, r):
        payload = json.dumps({"h": hm.matrix_to_json(hm.identity(2)), "g": 1, "r": r})
        code, out, err = run(capsys, ["invariants"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: divisibility tuple entries must be integers")

    def test_boolean_entry_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({"mode": "rational", "rows": 2, "cols": 2,
                              "entries": [[True, 0], [0, 1]]})
        code, out, err = run(capsys, ["shortest-vector"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_boolean_g_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({"h": hm.matrix_to_json(hm.identity(2)), "g": True, "r": [1]})
        code, out, err = run(capsys, ["invariants"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_float_entry_exit_2(self, capsys, monkeypatch, value):
        payload = json.dumps({"mode": "float", "rows": 2, "cols": 2,
                              "entries": [[value, 0.0], [0.0, 1.0]]})
        code, out, err = run(capsys, ["shortest-vector"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    # valid Gram matrices whose spectrum is past the float range; each
    # command replied with a NaN or an Infinity and exit 0 before
    @pytest.mark.parametrize("h", [
        {"mode": "float", "rows": 2, "cols": 2, "entries": [[1e-310, 0.0], [0.0, 1e-310]]},
        {"mode": "rational", "rows": 2, "cols": 2,
         "entries": [[f"1/{10**308}", "0"], ["0", f"1/{10**308}"]]},
        {"mode": "rational", "rows": 2, "cols": 2,
         "entries": [[f"1/{10**309}", "0"], ["0", f"1/{10**309}"]]},
    ])
    @pytest.mark.parametrize("command", ["spectrum", "invariants", "certify", "heis-type",
                                         "curvature-bound"])
    def test_spectrum_past_the_float_range_exit_2(self, capsys, monkeypatch, h, command):
        metric = {"h": h, "g": 1, "r": [1]}
        payload = {"spectrum": h, "certify": [metric]}.get(command, metric)
        code, out, err = run(capsys, [command], stdin=json.dumps(payload),
                             monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err == "error: symplectic spectrum is past the float range\n"

    def test_zero_denominator_entry_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({"mode": "rational", "rows": 2, "cols": 2,
                              "entries": [["1/0", "0"], ["0", "1"]]})
        code, out, err = run(capsys, ["shortest-vector"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_zero_denominator_r_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({"h": hm.matrix_to_json(hm.identity(2)), "g": 1, "r": ["1/0"]})
        code, out, err = run(capsys, ["invariants"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_zero_denominator_threshold_exit_2(self, capsys, monkeypatch):
        payload = json.dumps([hm.matrix_to_json(hm.identity(2))])
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        argv = ["certify-torus", "--C0", "1/0"]
        with pytest.raises(SystemExit) as exc:
            hm.cli.build_parser().parse_args(argv)
        fresh = (exc.value.code, capsys.readouterr())
        assert (main(argv), capsys.readouterr()) == fresh
        assert fresh[0] == 2
        assert "--C0" in fresh[1].err and "Traceback" not in fresh[1].err

    @pytest.mark.parametrize("n, entries", [(2, ["21", "12"]), (2, [["2", "1"], "12"]),
                                            (1, "5")])
    def test_string_for_list_entries_exit_2(self, capsys, monkeypatch, n, entries):
        payload = json.dumps({"mode": "rational", "rows": n, "cols": n, "entries": entries})
        code, out, err = run(capsys, ["shortest-vector"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_string_for_list_r_exit_2(self, capsys, monkeypatch):
        payload = json.dumps({"h": hm.matrix_to_json(hm.identity(4)), "g": 1, "r": "12"})
        code, out, err = run(capsys, ["invariants"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestTolOption:
    @pytest.mark.parametrize("argv", [["invariants"], ["shortest-vector"], ["reduce"],
                                      ["spectrum"], ["curvature-bound"], ["certify-torus"],
                                      ["counterexample", "--k", "1"],
                                      ["verify-inequality", "--samples", "1", "--seed", "1",
                                       "--dim", "2"],
                                      ["random-symplectic", "--dim", "2", "--seed", "1"]])
    def test_rejected_where_unread(self, capsys, argv):
        code, out, err = run(capsys, [*argv, "--tol", "0.1"])
        assert code == 2
        assert out == "" and "--tol" in err

    @pytest.mark.parametrize("argv", [["heis-type"], ["certify", "--heisenberg-type",
                                                      "--C0", "1"]])
    def test_accepted_where_read(self, capsys, monkeypatch, argv):
        members = [json.loads(identity_metric_json())]
        payload = json.dumps(members if argv[0] == "certify" else members[0])
        code, _, err = run(capsys, [*argv, "--tol", "0.1"], stdin=payload,
                           monkeypatch=monkeypatch)
        assert code == 0 and err == ""


    @pytest.mark.parametrize("tol", ["-1", "-1e-300", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["heis-type"], ["certify", "--heisenberg-type",
                                                      "--C0", "1"],
                                      ["certify", "--C0", "1", "--C1", "1"]],
                             ids=["heis-type", "certify-heisenberg-type", "certify"])
    def test_negative_or_non_finite_is_a_usage_error(self, capsys, monkeypatch, argv, tol):
        # the identity metric is exactly of Heisenberg type
        members = [json.loads(identity_metric_json())]
        payload = json.dumps(members if argv[0] == "certify" else members[0])
        code, out, err = run(capsys, [*argv, f"--tol={tol}"], stdin=payload,
                             monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and "argument --tol: tolerance must be finite and nonnegative" in err

    def test_zero_is_valid(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["heis-type", "--tol", "0"], stdin=identity_metric_json(),
                           monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["heisenberg_type"] is True


class TestOneScalarTablePerPayload:
    """A command parses each distinct string of its payload once per mode."""

    @staticmethod
    def spy(monkeypatch, name):
        seen = []
        real = getattr(hm.compactness, name)

        def spied(family, **kwargs):
            seen.append(family)
            return real(family, **kwargs)

        monkeypatch.setattr(hm.compactness, name, spied)
        return seen

    @staticmethod
    def gram(mode, third="1/3"):
        return {"mode": mode, "rows": 2, "cols": 2, "entries": [["1", third], [third, "1"]]}

    def test_torus_family_of_mixed_modes(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, "mahler_certificate")
        payload = json.dumps([self.gram("rational"), self.gram("float"), self.gram("rational")])
        code, _, err = run(capsys, ["certify-torus"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0 and err == ""
        (rat, flt, rat2), = seen
        assert rat.entries[0][1] == Fraction(1, 3) and type(rat.entries[0][1]) is Fraction
        assert flt.entries[0][1] == 0.3333333333333333 and type(flt.entries[0][1]) is float
        assert rat.entries[0][1] is rat2.entries[1][0]  # one object across members
        assert rat.entries[0][0] is rat2.entries[1][1]

    def test_metric_family_shares_h_and_g_strings(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, "heisenberg_certificate")
        members = [{"h": self.gram(mode), "g": "1/3", "r": [1]}
                   for mode in ("rational", "float", "rational")]
        code, _, err = run(capsys, ["certify"], stdin=json.dumps(members),
                           monkeypatch=monkeypatch)
        assert code == 0 and err == ""
        rat, flt, rat2 = seen[0].members
        assert rat.h.entries[0][1] == Fraction(1, 3) and type(rat.h.entries[0][1]) is Fraction
        assert flt.h.entries[0][1] == 0.3333333333333333 and type(flt.h.entries[0][1]) is float
        # g is exact in every member, and one object with the rational h entries
        assert rat.g is flt.g is rat2.g is rat.h.entries[0][1] is rat2.h.entries[1][0]

    @pytest.mark.parametrize("bad, message", [
        ("1/0", "error: scalar '1/0' has a zero denominator\n"),
        (True, "error: boolean True is not a scalar\n"),
    ])
    @pytest.mark.parametrize("command", ["certify", "certify-torus"])
    def test_bad_scalar_in_a_later_member_exit_2(self, capsys, monkeypatch, command, bad,
                                                 message):
        grams = [self.gram("rational"), self.gram("rational", bad)]
        payload = json.dumps(grams if command == "certify-torus"
                             else [{"h": h, "g": "1/3", "r": [1]} for h in grams])
        code, out, err = run(capsys, [command], stdin=payload, monkeypatch=monkeypatch)
        assert code == 2
        assert out == "" and err == message


class TestOneSpectrumKernelPerCommand:
    """Each command takes all its spectra from one stacked SVD call."""

    @staticmethod
    def family_json():
        members = []
        for seed in range(6):
            S = hm.random_symplectic_integer(2, seed, 6)
            members.append({"h": hm.matrix_to_json(hm.congruence(hm.identity(4), S)),
                            "g": 1, "r": [1, 1]})
        return json.dumps({"members": members})

    @pytest.mark.parametrize("argv, stdin", [
        (["certify", "--C0", "1", "--C2", "1e9"], "family"),
        (["certify", "--heisenberg-type", "--C0", "1"], "family"),
        (["invariants"], "metric"),
        (["heis-type"], "metric"),
    ])
    def test_one_svd_call(self, capsys, monkeypatch, argv, stdin):
        real, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        payload = self.family_json() if stdin == "family" else identity_metric_json()
        code, _, err = run(capsys, argv, stdin=payload, monkeypatch=monkeypatch)
        assert code == 0 and err == ""
        assert calls == [(6 if stdin == "family" else 1, 4, 4)]


# JSON strings with quotes, backslashes, control, non-ASCII and lone
# surrogate characters; floats at the edges of JSON's text forms
STRINGS = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ['"', "\\", "\0", "\x1f", "\n\t", "é", " ", "\ud800", "a, b", "{}"])
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan])
LEAVES = (STRINGS | st.integers() | st.integers(-10**40, 10**40) | FLOATS
          | st.booleans() | st.none())
VALUES = st.recursive(LEAVES, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(STRINGS, inner)),
    max_leaves=25)


class TestReplyWriter:
    """The JSON reply is ``json.dumps(payload, indent=2)``, byte for byte,
    written through the C encoder."""

    @given(VALUES)
    @example([])
    @example({"": {"a": ()}, "b": [[], {}, 0]})
    @example("x\0")
    def test_writer_is_indented_json_dumps(self, value):
        assert hm.cli._dumps(value) == json.dumps(value, indent=2)


class TestNoCyclicGarbage:
    """An in-process command leaves nothing for the cyclic collector: with
    the collector off, a collection after a warm command saves nothing."""

    METRICS = json.dumps([{"h": hm.matrix_to_json(h), "g": g, "r": [1, 1]} for h, g in
                          [(hm.identity(4), 1), (hm.identity(4), "1/2"),
                           (hm.counterexample_family(2), 1)]])
    GRAMS = json.dumps([hm.matrix_to_json(hm.counterexample_family(k)) for k in range(3)])

    @pytest.mark.parametrize("argv, stdin", [
        (["certify", "--C0", "1", "--C1", "1", "--C2", "3", "--g-min", "1/2", "--g-max", "1"],
         METRICS),
        (["certify", "--heisenberg-type", "--C0", "1"],
         json.dumps([{"h": hm.matrix_to_json(hm.identity(4)), "g": 1, "r": [1, 1]}])),
        (["certify-torus", "--C0", "1", "--C1", "1"], GRAMS),
        (["invariants"], identity_metric_json()),
    ], ids=["certify", "certify-heisenberg-type", "certify-torus", "invariants"])
    def test_no_garbage_per_command(self, capsys, monkeypatch, argv, stdin):
        def command():
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(argv)
            capsys.readouterr()
            return code

        assert command() in (0, 1)  # warm: the parser is built, imports done
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            command()
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert garbage == []
