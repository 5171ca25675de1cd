import json

import pytest

import heismoduli as hm
from heismoduli.cli import main


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

    def test_reduce(self, capsys, monkeypatch):
        payload = json.dumps(hm.matrix_to_json(hm.SpdMatrix.from_rows([[5, 3], [3, 2]])))
        code, out, _ = run(capsys, ["reduce"], stdin=payload, monkeypatch=monkeypatch)
        assert code == 0
        obj = json.loads(out)
        assert obj["reduced"]["entries"] == [["1", "0"], ["0", "1"]]

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


class TestRandomSymplecticCommand:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["random-symplectic", "--dim", "4",
                                      "--seed", "11", "--steps", "8"])
        code2, out2, _ = run(capsys, ["random-symplectic", "--dim", "4",
                                      "--seed", "11", "--steps", "8"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["epsilon"] in (1, -1)


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
        payload = json.dumps(hm.matrix_to_json(hm.identity(4)))
        code, _, err = run(capsys, ["shortest-vector"], stdin=payload,
                           monkeypatch=monkeypatch)
        assert code == 3

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
