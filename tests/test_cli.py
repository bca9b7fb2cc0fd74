import json

import numpy as np
import pytest

from concentro.cli import dispatch
from concentro.norms import NormOptions, norm_J
from concentro.partitions import SetPartition
from concentro.poly import Polynomial, polynomial_to_dict
from concentro.tensor import Tensor, load_tensor, save_tensor


@pytest.fixture
def id2(tmp_path):
    path = str(tmp_path / "id2.json")
    save_tensor(Tensor(np.eye(2)), path)
    return path


@pytest.fixture
def x1x2(tmp_path):
    path = str(tmp_path / "x1x2.json")
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(Polynomial(2, {((1, 1), (2, 1)): 1.0})), fh)
    return path


def test_norm_identity(id2, capsys):
    assert dispatch(["norm", "--tensor", id2, "--partition", "1|2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    value, method, cert = lines[1].split(",")
    assert float(value) == 1.0
    assert method == "matricization-spectral"
    with open(cert) as fh:
        doc = json.load(fh)
    assert doc["value"] == pytest.approx(1.0)


def test_norm_header_has_version_and_seed(id2, capsys):
    dispatch(["norm", "--tensor", id2, "--partition", "1,2", "--seed", "7"])
    out = capsys.readouterr().out
    assert out.startswith("# concentro 0.1.0")
    assert "seed=7" in out


def test_bounds_csv_total(x1x2, tmp_path, capsys):
    out_path = str(tmp_path / "report.csv")
    code = dispatch(["bounds", "--poly", x1x2, "--law", "gaussian", "--p", "2",
                     "--out", out_path])
    assert code == 0
    text = open(out_path).read()
    assert "d,partition,exponent,norm,flag,term" in text
    assert "# total=4" in text


def test_reports_reproducible_bytes(x1x2, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["mc", "moments", "--poly", x1x2, "--law", "gaussian",
            "--N", "20000", "--seed", "3", "--p", "2", "4"]
    assert dispatch(argv + ["--out", a]) == 0
    assert dispatch(argv + ["--out", b]) == 0
    assert open(a, "rb").read().replace(b"a.csv", b"x") == \
        open(b, "rb").read().replace(b"b.csv", b"x")


def test_missing_file_exit_2(capsys):
    code = dispatch(["norm", "--tensor", "/nonexistent/t.json", "--partition", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "/nonexistent/t.json" in err and err.count("\n") == 1


def test_unknown_flag_exit_2(id2, capsys):
    code = dispatch(["norm", "--tensor", id2, "--partition", "1,2", "--bogus"])
    assert code == 2


def test_validation_error_exit_2(x1x2, capsys):
    code = dispatch(["bounds", "--poly", x1x2, "--law", "gaussian", "--p", "1"])
    assert code == 2
    assert "p=1" in capsys.readouterr().err


def test_mixednorm(tmp_path, capsys):
    path = str(tmp_path / "vec.json")
    save_tensor(Tensor(np.array([3.0, 4.0])), path)
    assert dispatch(["mixednorm", "--tensor", path, "--split", "||1",
                     "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "4"


def test_tail_auto_L(x1x2, capsys):
    code = dispatch(["tail", "--poly", x1x2, "--law", "bernoulli", "--pp", "0.5",
                     "--t", "10", "--L", "auto"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# tail_estimate=" in out


def test_config_file_merge(x1x2, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"poly": x1x2, "law": "gaussian", "p": 4.0}, fh)
    assert dispatch(["bounds", "--config", cfg, "--poly", x1x2, "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "# total=4" in out  # flag --p 2 overrides config's 4.0


@pytest.fixture
def als_config(tmp_path):
    tensor = str(tmp_path / "t3.json")
    save_tensor(Tensor(np.random.default_rng(11).standard_normal((3, 3, 3))), tensor)
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"restarts": 2, "seed": 99, "max_sweeps": 1}, fh)
    return tensor, ["norm", "--tensor", tensor, "--partition", "1|2|3", "--method", "als",
                    "--cert-out", str(tmp_path / "cert.json"), "--config", cfg]


def _norm_value(out):
    return float([l for l in out.splitlines() if not l.startswith("#")][1].split(",")[0])


def test_config_reaches_subcommand_options(als_config, capsys):
    tensor, argv = als_config
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[1].split()
    assert {"restarts=2", "seed=99", "max_sweeps=1"} <= set(header)
    expect = norm_J(load_tensor(tensor), SetPartition.parse("1|2|3"),
                    NormOptions(restarts=2, seed=99, max_sweeps=1), method="als").value
    assert _norm_value(out) == float(f"{expect:.12g}")


def test_flag_beats_config(als_config, capsys):
    _, argv = als_config
    assert dispatch(argv + ["--seed", "5"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert {"restarts=2", "seed=5", "max_sweeps=1"} <= set(header)


def test_config_unknown_key_exit_2(id2, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"restarts": 2, "bogus_key": 5}, fh)
    code = dispatch(["norm", "--tensor", id2, "--partition", "1|2", "--config", cfg])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bogus_key" in captured.err and captured.err.count("\n") == 1


def test_missing_config_exit_2(capsys):
    assert dispatch(["hermite", "--config", "/nonexistent/cfg.json"]) == 2
    assert "/nonexistent/cfg.json" in capsys.readouterr().err


def test_mc_chaos_and_hermite(id2, capsys):
    off = str(id2).replace("id2", "off")
    save_tensor(Tensor(np.array([[0.0, 1.0], [1.0, 0.0]])), off)
    assert dispatch(["mc", "chaos", "--tensor", off, "--chaos-mode", "undecoupled",
                     "--N", "20000", "--p", "2"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[-1].split(",")[2])
    assert value == pytest.approx(2.0, abs=0.1)
    assert dispatch(["mc", "hermite", "--d", "1", "--Nlist", "10", "--N", "2000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "10,0,0"


def test_graphs_cyclebound(capsys):
    assert dispatch(["graphs", "cyclebound", "--k", "4", "--n", "9", "--p", "0.2",
                     "--d", "4", "--partition", "1,2,3,4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].endswith(",81")


def test_graphs_triangles_small(capsys):
    assert dispatch(["graphs", "triangles", "--n", "12", "--p", "0.5",
                     "--N", "2000", "--eps", "0.5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "# expected_mean=27.5" in out


def test_rmt_command(tmp_path, capsys):
    path = str(tmp_path / "xsq.json")
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(Polynomial(1, {((1, 2),): 1.0})), fh)
    assert dispatch(["rmt", "--f", path, "--n", "20", "--replicas", "100",
                     "--t", "2.0", "--CL", "1"]) == 0
    out = capsys.readouterr().out
    assert "# sobolev_term=" in out and "limit=4" in out


def test_small_experiments_take_no_moment(tmp_path, capsys):
    path = str(tmp_path / "xsq.json")
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(Polynomial(1, {((1, 2),): 1.0})), fh)
    assert dispatch(["rmt", "--f", path, "--n", "10", "--replicas", "20"]) == 0
    assert "# z_mean=" in capsys.readouterr().out
    assert dispatch(["graphs", "triangles", "--n", "10", "--p", "0.5", "--N", "20",
                     "--eps", "0.5"]) == 0
    assert "# expected_mean=15" in capsys.readouterr().out


def test_hermite_command(capsys):
    assert dispatch(["hermite", "--k", "3"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows == ["power,coefficient", "0,0", "1,-3", "2,0", "3,1"]


def test_hermite_expansion_command(tmp_path, capsys):
    path = str(tmp_path / "xcube.json")
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(Polynomial(1, {((1, 3),): 1.0})), fh)
    assert dispatch(["hermite", "--poly", path]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert "1,3" in rows and "3,1" in rows
