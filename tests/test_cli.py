import hashlib
import json
import warnings

import numpy as np
import pytest

from concentro import cli, graphs
from concentro.cli import dispatch
from concentro.norms import NormOptions, norm_J
from concentro.partitions import SetPartition
from concentro.poly import Polynomial
from concentro.tensor import IndexMask, Tensor, apply_mask, load_tensor, symmetrize
from oracles import polynomial_to_dict, save_tensor


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


def test_norm_identity(id2, tmp_path, capsys):
    cert_out = str(tmp_path / "id2.cert.json")
    assert dispatch(["norm", "--tensor", id2, "--partition", "1|2",
                     "--cert-out", cert_out]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    value, method, cert = lines[1].split(",")
    assert float(value) == 1.0
    assert method == "matricization-spectral"
    assert cert == cert_out
    with open(cert) as fh:
        doc = json.load(fh)
    assert doc["value"] == pytest.approx(1.0)


def test_norm_writes_no_certificate_unless_asked(id2, tmp_path, capsys):
    before = sorted(p.name for p in tmp_path.iterdir())
    assert dispatch(["norm", "--tensor", id2, "--partition", "1|2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[1].split(",")[2] == "-"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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
        json.dump({"restarts": 2, "seed": 99}, fh)
    return tensor, ["norm", "--tensor", tensor, "--partition", "1|2|3", "--method", "als",
                    "--cert-out", str(tmp_path / "cert.json"), "--config", cfg]


def _norm_value(out):
    return float([l for l in out.splitlines() if not l.startswith("#")][1].split(",")[0])


def test_config_reaches_subcommand_options(als_config, capsys):
    tensor, argv = als_config
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[1].split()
    assert {"restarts=2", "seed=99"} <= set(header)
    expect = norm_J(load_tensor(tensor), SetPartition.parse("1|2|3"),
                    NormOptions(restarts=2, seed=99), method="als").value
    assert _norm_value(out) == float(f"{expect:.12g}")


def test_flag_beats_config(als_config, capsys):
    _, argv = als_config
    assert dispatch(argv + ["--seed", "5"]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert {"restarts=2", "seed=5"} <= set(header)


def test_config_supplies_required_options(x1x2, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"poly": x1x2, "p": 3.0}, fh)
    assert dispatch(["bounds", "--poly", x1x2, "--p", "3"]) == 0
    by_flags = capsys.readouterr().out
    assert dispatch(["bounds", "--config", cfg]) == 0
    assert capsys.readouterr().out == by_flags
    # a required option that neither the flags nor the config give
    with open(cfg, "w") as fh:
        json.dump({"poly": x1x2}, fh)
    assert dispatch(["bounds", "--config", cfg]) == 2
    assert "required: --p" in capsys.readouterr().err


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
                     "--partition", "1,2,3,4"]) == 0
    out = capsys.readouterr().out
    # sqrt(2k * k! * (n)_k) = sqrt(8 * 24 * 3024), the exact top-order norm
    assert out.splitlines()[-1].endswith(",761.976377587")


def test_graphs_cyclebound_refuses_an_enumeration_past_its_cap(monkeypatch, capsys):
    # perm(30, 6) ordered edge tuples, refused before the first: every tuple
    # would read its block exponents
    def enumerated(*args):
        raise AssertionError("the edge tuples were enumerated")

    monkeypatch.setattr(graphs, "_block_exponents", enumerated)
    assert dispatch(["graphs", "cyclebound", "--k", "30", "--n", "30", "--p", "0.5",
                     "--partition", "1|2|3|4|5|6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the norm bound at k = 30, d = 6 sums over 427518000"
                            " ordered edge tuples, cap is 100000\n")
    # the top order with one block is the closed form, at any size
    assert dispatch(["graphs", "cyclebound", "--k", "30", "--n", "30", "--p", "0.5",
                     "--partition", ",".join(str(i) for i in range(1, 31))]) == 0


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


def _body(out):
    return [l for l in out.splitlines() if not l.startswith("#")]


def test_mc_chaos_lines_pinned(tmp_path, capsys):
    # printed by the einsum kernel this replaced, at the same seeds
    raw = np.sin(np.arange(27.0)).reshape(3, 3, 3)
    dec, und = str(tmp_path / "dec.json"), str(tmp_path / "und.json")
    save_tensor(Tensor(raw), dec)
    save_tensor(apply_mask(symmetrize(Tensor(raw)), IndexMask.off_diagonal()), und)
    assert dispatch(["mc", "chaos", "--tensor", dec, "--N", "30000", "--seed", "5",
                     "--batch", "7000"]) == 0
    assert _body(capsys.readouterr().out)[1] == \
        "decoupled,2,3.57351275126,0.0458648937576,30000"
    assert dispatch(["mc", "chaos", "--tensor", und, "--chaos-mode", "undecoupled",
                     "--N", "30000", "--seed", "5", "--p", "3"]) == 0
    assert _body(capsys.readouterr().out)[1] == \
        "undecoupled,3,0.524876759162,0.0106774810603,30000"


def test_mc_hermite_lines_pinned(capsys):
    # printed by the column-by-column recurrence this replaced; the inner sizes
    # put chunks on both sides of rows = N
    assert dispatch(["mc", "hermite", "--d", "3", "--Nlist", "2", "10", "300", "--N", "3000",
                     "--seed", "5", "--batch", "4096"]) == 0
    assert _body(capsys.readouterr().out)[1:] == [
        "2,3.95228490457,0.313452970809", "10,1.51665058912,0.102690955184",
        "300,0.0579885697029,0.00278592058163"]
    assert dispatch(["mc", "hermite", "--d", "4", "--Nlist", "5", "1000", "--N", "2000",
                     "--seed", "6"]) == 0
    assert _body(capsys.readouterr().out)[1:] == [
        "5,16.7682515164,3.121994028", "1000,0.105435947599,0.00989521446709"]


def test_config_does_not_reach_the_next_run(als_config, capsys):
    _, argv = als_config
    assert dispatch(argv) == 0
    capsys.readouterr()
    assert dispatch(argv[:-2]) == 0
    header = capsys.readouterr().out.splitlines()[1].split()
    assert {"restarts=64", "seed=0"} <= set(header)


def test_config_string_goes_through_the_option_type(id2, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"restarts": "2"}, fh)
    assert dispatch(["norm", "--tensor", id2, "--partition", "1|2", "--config", cfg]) == 0
    assert "restarts=2" in capsys.readouterr().out.splitlines()[1].split()


def test_config_values_parse_as_their_text(x1x2, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")

    def run(argv, config=None):
        if config is not None:
            with open(cfg, "w") as fh:
                json.dump(config, fh)
            argv = argv + ["--config", cfg]
        return dispatch(argv), capsys.readouterr()

    # a number goes through the option's type: the echo reads p=3.0, as for --p 3
    _, by_flags = run(["bounds", "--poly", x1x2, "--p", "3"])
    assert run(["bounds", "--poly", x1x2], {"p": 3}) == (0, by_flags)
    moments = ["mc", "moments", "--poly", x1x2]
    _, by_flags = run(moments + ["--N", "3000", "--p", "2", "4"])
    assert run(moments, {"N": 3000, "p": [2, 4]}) == (0, by_flags)
    _, by_flags = run(moments + ["--N", "3000", "--p", "3"])
    assert run(moments, {"N": 3000, "p": 3}) == (0, by_flags)
    # null keeps the default
    _, by_flags = run(["mc", "tail", "--poly", x1x2, "--N", "3000"])
    assert run(["mc", "tail", "--poly", x1x2, "--N", "3000"], {"t": None}) == (0, by_flags)
    # what the flag's text would not pass: exit 2 with one line
    # argparse's messages, after the file's name
    for mode, config, message in [
            ("tail", {"N": 3000.0}, "argument --N: invalid int value: '3000.0'"),
            ("tail", {"N": [3000]}, "argument --N: invalid int value: '[3000]'"),
            ("tail", {"t": "abc"}, "argument --t: invalid float value: 'abc'"),
            ("tail", {"law": "cauchy"}, "argument --law: invalid choice: 'cauchy'"),
            ("sandwich", {"window": [1]}, "argument --window: expected 2 arguments"),
            ("sandwich", {"p": []}, "argument --p: expected at least one argument")]:
        code, captured = run(["mc", mode, "--poly", x1x2], config)
        assert code == 2 and captured.out == "", config
        assert f"config {cfg}: {message}" in captured.err, captured.err
        assert captured.err.count("\n") == 1, captured.err


# every leaf with each of its options but --out and --config, by flag name;
# "<name>" stands for an input file of the test
_EVERY_LEAF = [
    (["norm"], {"--tensor": "<t3>", "--partition": "1|2,3", "--method": "als",
                "--cert-out": "<cert>", "--restarts": 3, "--seed": 4}),
    (["mixednorm"], {"--tensor": "<t3>", "--split": "1||2,3", "--alpha": 1.5, "--restarts": 3,
                     "--seed": 4}),
    (["bounds"], {"--poly": "<x1x2>", "--law": "bernoulli", "--pp": 0.3, "--alpha": None,
                  "--p": 3, "--gamma": 1, "--L": "2", "--restarts": 3, "--seed": 4}),
    (["tail"], {"--poly": "<x1x2>", "--law": "gaussian", "--pp": None, "--alpha": None,
                "--t": 2, "--L": "1.5", "--CD": 2, "--restarts": 3, "--seed": 4}),
    (["mc", "moments"], {"--poly": "<x1x2>", "--law": "rademacher", "--pp": None,
                         "--alpha": None, "--p": [2, 4], "--N": 500, "--batch": 128,
                         "--seed": 4, "--workers": 2}),
    (["mc", "tail"], {"--poly": "<x1x2>", "--law": "weibull", "--pp": None, "--alpha": 1.5,
                      "--t": 0.5, "--N": 1000, "--batch": 256, "--seed": 4, "--workers": 1}),
    (["mc", "chaos"], {"--tensor": "<off>", "--chaos-mode": "undecoupled", "--p": 3,
                       "--N": 500, "--batch": 128, "--seed": 4, "--workers": 1}),
    (["mc", "sandwich"], {"--poly": "<x1x2>", "--law": "gaussian", "--pp": None,
                          "--alpha": None, "--p": [2, 4], "--window": [0.5, 2],
                          "--restarts": 3, "--N": 500, "--batch": 128, "--seed": 4,
                          "--workers": 1}),
    (["mc", "hermite"], {"--d": 2, "--Nlist": [5, 10], "--N": 100, "--batch": 64, "--seed": 4,
                         "--workers": 1}),
    (["mc", "sobolev"], {"--poly": "<x1x2>", "--law": "gaussian", "--pp": None,
                         "--alpha": None, "--p": [2, 3], "--N": 500, "--batch": 128,
                         "--seed": 4, "--workers": 1}),
    (["graphs", "triangles"], {"--n": 8, "--p": 0.5, "--eps": 0.5, "--t": [3, 5], "--C": 2,
                               "--N": 40, "--batch": 16, "--seed": 4, "--workers": 2}),
    (["graphs", "cyclebound"], {"--k": 4, "--n": 9, "--p": 0.2, "--partition": "1|2"}),
    (["rmt"], {"--f": "<xsq>", "--n": 6, "--replicas": 20, "--batch": 8, "--t": [1, 2],
               "--CL": 2, "--convention": "goe", "--seed": 4, "--workers": 1}),
    (["hermite"], {"--k": 4, "--poly": None})]


def test_each_leaf_prints_the_same_bytes_from_a_config_as_from_flags(x1x2, tmp_path, capsys):
    files = {"<x1x2>": x1x2, "<t3>": str(tmp_path / "t3.json"), "<off>": str(tmp_path / "off.json"),
             "<xsq>": str(tmp_path / "xsq.json"), "<cert>": str(tmp_path / "cert.json")}
    save_tensor(Tensor(np.sin(np.arange(27.0)).reshape(3, 3, 3)), files["<t3>"])
    save_tensor(Tensor(np.array([[0.0, 1.0], [1.0, 0.0]])), files["<off>"])
    with open(files["<xsq>"], "w") as fh:
        json.dump(polynomial_to_dict(Polynomial(1, {((1, 2),): 1.0})), fh)
    leaves = {p.prog.split(maxsplit=1)[1]: p for p, _ in cli._parsers()[1].values()}
    assert sorted(leaves) == sorted(" ".join(words) for words, _ in _EVERY_LEAF)
    cfg = tmp_path / "cfg.json"
    for words, options in _EVERY_LEAF:
        options = {flag: files.get(v, v) if isinstance(v, str) else v
                   for flag, v in options.items()}
        # the case names every option of its leaf
        declared = {a.option_strings[0] for a in leaves[" ".join(words)]._actions} - \
            {"-h", "--config", "--out"}
        assert set(options) == declared, words
        flags = [text for flag, v in options.items() if v is not None
                 for text in [flag, *map(str, v if isinstance(v, list) else [v])]]
        assert dispatch(words + flags) == 0, words
        by_flags = capsys.readouterr().out
        cfg.write_text(json.dumps({flag.lstrip("-").replace("-", "_"): v
                                   for flag, v in options.items()}))
        assert dispatch(words + ["--config", str(cfg)]) == 0, words
        assert capsys.readouterr().out == by_flags, words


def test_graphs_triangles_lines_pinned(capsys):
    # printed by the whole-chunk sampler and counter this replaced
    assert dispatch(["graphs", "triangles", "--n", "60", "--p", "0.1", "--N", "2500",
                     "--seed", "77", "--t", "20", "40", "--workers", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "# expected_mean=34.22", "# empirical_mean=34.3728 stderr=0.188723098915",
        "t,tail,wilson_low,wilson_high,bound",
        "20,0.0344,0.0279398223208,0.0422889014131,1.91020387181",
        "40,0.0004,7.06114955515e-05,0.00226244343891,1.66428959121"]


def test_bernoulli_without_pp_exit_2(x1x2, capsys):
    assert dispatch(["bounds", "--poly", x1x2, "--law", "bernoulli", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bernoulli" in captured.err and captured.err.count("\n") == 1


def test_law_parameter_of_another_law_exit_2(x1x2, capsys):
    argv = ["bounds", "--poly", x1x2, "--p", "3", "--law", "gaussian", "--alpha", "1.5"]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes no alpha" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("mode,flag", [("moments", "--poly"), ("tail", "--poly"),
                                       ("sandwich", "--poly"), ("sobolev", "--poly"),
                                       ("chaos", "--tensor")])
def test_mc_without_its_input_exit_2(mode, flag, capsys):
    assert dispatch(["mc", mode, "--N", "100"]) == 2
    err = capsys.readouterr().err
    assert flag in err and err.count("\n") == 1


@pytest.mark.parametrize("size", ["0", "-3"])
def test_mc_hermite_inner_size_below_one_exit_2(size, capsys):
    assert dispatch(["mc", "hermite", "--d", "2", "--Nlist", "10", size, "--N", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"N={size}" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("extra,message", [
    (["--L", "2"], "needs both --gamma and --L"),
    (["--law", "weibull", "--alpha", "1.5", "--gamma", "1"], "weibull report takes no"),
    (["--law", "weibull", "--alpha", "1.5", "--L", "2"], "weibull report takes no")])
def test_bounds_rejects_options_it_would_ignore(x1x2, extra, message, capsys):
    assert dispatch(["bounds", "--poly", x1x2, "--p", "3"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["graphs", "cyclebound", "--k", "3", "--n", "10", "--p", "-1", "--partition", "1,2"],
     "edge probability p must be in (0, 1]"),
    (["graphs", "cyclebound", "--k", "3", "--n", "10", "--p", "1.5", "--partition", "1,2"],
     "edge probability p must be in (0, 1]"),
    (["graphs", "cyclebound", "--k", "3", "--n", "-5", "--p", "0.5"],
     "ambient vertex count -5 below pattern size 3"),
    (["graphs", "cyclebound", "--k", "300", "--n", "30", "--p", "0.5"],
     "ambient vertex count 30 below pattern size 300"),
    # n^(k - 1) = 300^299 at d = 1
    (["graphs", "cyclebound", "--k", "300", "--n", "300", "--p", "0.5"],
     "the norm bound overflows a float at k = 300, n = 300"),
    (["graphs", "triangles", "--n", "2", "--p", "0.5", "--eps", "0.5"],
     "ambient vertex count 2 below pattern size 3"),
    (["tail", "--poly", "x1x2", "--t", "1", "--L", "abc"],
     "argument --L: invalid float or 'auto' value: 'abc'"),
    (["tail", "--poly", "x1x2", "--t", "1", "--L", "nan"],
     "argument --L: invalid float or 'auto' value: 'nan'"),
    # a bound term whose arithmetic leaves the float range: L^d, p^exponent
    # or their product
    (["tail", "--poly", "x1x2", "--law", "rademacher", "--t", "2", "--L", "1e308"],
     "the bound term at order d = 2, J = 1,2 overflows a float"),
    (["bounds", "--poly", "x1x2", "--p", "2", "--gamma", "1", "--L", "1e308"],
     "the bound term at order d = 1, J = 1 overflows a float"),
    (["bounds", "--poly", "x1x2x3", "--p", "1e300"],
     "the bound term at order d = 3, J = 1|2|3 overflows a float"),
    (["bounds", "--poly", "x1x2x3", "--p", "1e300", "--law", "weibull", "--alpha", "1.5"],
     "the bound term at order d = 2, J = ||1|2 overflows a float"),
    # aut(C_600) = 1200 is counted without recursion; the bound then overflows
    (["graphs", "cyclebound", "--k", "600", "--n", "600", "--p", "0.5",
      "--partition", ",".join(str(i) for i in range(1, 601))],
     "the norm bound overflows a float at k = 600, n = 600"),
    # a label of another order than the tensor's: the norm functions check it
    (["norm", "--tensor", "t3", "--partition", "1|2"],
     "partition of [2] does not match tensor order 3"),
    (["mixednorm", "--tensor", "t3", "--split", "1||2", "--alpha", "1.5"],
     "split of [2] does not match tensor order 3"),
    # finite terms whose sum overflows: five d = 3 rows up to 9.35e307, and
    # the chaos sum sqrt(2) c + (2c + 2c)/2 of c (x1 + x1 x2) at c = 6e307
    (["bounds", "--poly", "x1x2x3", "--p", "2", "--gamma", "0.5", "--L", "3e102"],
     "the report total, a sum of finite terms, overflows a float"),
    (["bounds", "--poly", "big", "--p", "2"],
     "the chaos total, a sum of finite terms, overflows a float"),
    # a negative tail point, refused before any sampling as `mc tail` refuses
    # it: t = eps * E X = -1 * 1.25 for triangles at n = 5, p = 1/2
    (["graphs", "triangles", "--n", "5", "--p", "0.5", "--eps", "-1", "--N", "100"],
     "t=-1.25 must be nonnegative"),
    (["rmt", "--f", "xsq", "--n", "5", "--t", "-1"], "t=-1 must be nonnegative"),
    # an infinite L would make every tail term zero
    (["tail", "--poly", "x1x2", "--t", "1", "--L", "inf"], "L=inf must be positive and finite"),
    # an inverted ratio window would judge every row `fail`
    (["mc", "sandwich", "--poly", "x1x2", "--N", "1000", "--window", "10", "0.1"],
     "ratio window (10, 0.1) needs 0 <= low <= high")])
def test_out_of_range_graph_and_tail_input_exit_2(x1x2, tmp_path, argv, message, capsys):
    files = {"x1x2": x1x2,
             "x1x2x3": _poly_file(tmp_path, "x1x2x3", 3, {((1, 1), (2, 1), (3, 1)): 1.0}),
             "big": _poly_file(tmp_path, "big", 2, {((1, 1),): 6e307, ((1, 1), (2, 1)): 6e307}),
             "xsq": _poly_file(tmp_path, "xsq", 1, {((1, 2),): 1.0}),
             "t3": str(tmp_path / "t3.json")}
    save_tensor(Tensor(np.ones((2, 2, 2))), files["t3"])
    assert dispatch([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


def test_tail_L_is_auto_or_a_float(x1x2, capsys):
    base = ["tail", "--poly", x1x2, "--law", "rademacher", "--t", "2"]
    echo = lambda argv: (dispatch(argv), capsys.readouterr().out.splitlines()[1].split())
    code, auto = echo(base)
    assert code == 0 and "L=auto" in auto
    # an explicit number echoes as a float, as every float option does
    code, given = echo(base + ["--L", "2"])
    assert code == 0 and "L=2.0" in given


# (what the case shows, argv, argparse's message)
_UNREAD = [
    ("mc tail does not read --p, --window, --restarts",
     ["mc", "tail", "--poly", "x1x2", "--N", "2000", "--p", "9", "--window", "1", "2",
      "--restarts", "3"], "unrecognized arguments: --p 9 --window 1 2 --restarts 3"),
    ("mc moments does not read --tensor",
     ["mc", "moments", "--poly", "x1x2", "--tensor", "t.json"],
     "unrecognized arguments: --tensor t.json"),
    ("mc hermite does not read --law", ["mc", "hermite", "--law", "rademacher"],
     "unrecognized arguments: --law rademacher"),
    ("mc sobolev does not read --chaos-mode, --Nlist",
     ["mc", "sobolev", "--poly", "x1x2", "--chaos-mode", "undecoupled", "--Nlist", "5"],
     "unrecognized arguments: --chaos-mode undecoupled --Nlist 5"),
    ("mc chaos takes one --p", ["mc", "chaos", "--tensor", "t.json", "--p", "2", "4"],
     "unrecognized arguments: 4"),
    ("graphs cyclebound does not read --N, --workers, --t, --eps",
     ["graphs", "cyclebound", "--k", "4", "--n", "9", "--p", "0.2", "--N", "5", "--workers", "2",
      "--t", "3", "--eps", "0.1"], "unrecognized arguments: --N 5 --workers 2 --t 3 --eps 0.1"),
    ("graphs triangles does not read --k",
     ["graphs", "triangles", "--n", "10", "--p", "0.5", "--k", "4"],
     "unrecognized arguments: --k 4"),
    ("hermite --poly does not read --k", ["hermite", "--poly", "x1x2", "--k", "5"],
     "argument --k: not allowed with argument --poly")]


@pytest.mark.parametrize("argv,message", [case[1:] for case in _UNREAD],
                         ids=[f"argv{i}-{case[0]}" for i, case in enumerate(_UNREAD)])
def test_mc_rejects_options_its_mode_would_ignore(x1x2, argv, message, capsys):
    assert dispatch([x1x2 if a == "x1x2" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,config,message", [
    # an explicit --k 3 is not the default, so the group check sees it
    (["--poly", "x1x2", "--k", "3"], None, "argument --k: not allowed with argument --poly"),
    (["--poly", "x1x2"], {"k": 5}, "argument --poly: not allowed with argument --k"),
    (["--k", "5"], {"poly": "x1x2"}, "argument --k: not allowed with argument --poly"),
    ([], {"k": 5, "poly": "x1x2"}, "cfg.json: argument --poly: not allowed with argument --k")])
def test_hermite_reads_k_or_poly_from_flags_and_config_alike(x1x2, tmp_path, argv, config,
                                                            message, capsys):
    argv = ["hermite"] + [x1x2 if a == "x1x2" else a for a in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: x1x2 if v == "x1x2" else v for k, v in config.items()}))
        argv += ["--config", str(cfg)]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1
    assert dispatch(["hermite"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "# command=hermite k=3"


def test_mc_rejects_a_config_value_its_mode_would_ignore(x1x2, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": [1, 2]}))
    assert dispatch(["mc", "tail", "--poly", x1x2, "--N", "100", "--config", str(cfg)]) == 2
    assert "unknown key window for mc tail" in capsys.readouterr().err
    # a mode's default, given explicitly, is still an option it does not read
    assert dispatch(["mc", "tail", "--poly", x1x2, "--N", "1000", "--p", "2",
                     "--window", "0.1", "10", "--restarts", "64"]) == 2
    assert "unrecognized arguments: --p 2 --window 0.1 10 --restarts 64" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["norm", "--tensor", "t.json"], "the following arguments are required: --partition"),
    (["norm", "--tensor", "t.json", "--partition", "1", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["bounds", "--poly", "x.json", "--p", "2", "--law", "cauchy"],
     "argument --law: invalid choice: 'cauchy'"),
    (["mc", "mean", "--poly", "x.json"], "argument mode: invalid choice: 'mean'"),
    (["graphs"], "the following arguments are required: mode"),
    ([], "the following arguments are required: command"),
    # options match by their full name only: --gamma and --tensor would take these
    (["bounds", "--poly", "x.json", "--p", "2", "--gam", "1", "--L", "2"],
     "unrecognized arguments: --gam 1"),
    (["mc", "chaos", "--t", "5"], "unrecognized arguments: --t 5")])
def test_parse_errors_take_one_line(argv, message, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["mc", "--help"],
                                  ["mc", "sandwich", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    assert dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out


@pytest.fixture
def environ(monkeypatch):
    """monkeypatch, with the parsers rebuilt around the test, since they read
    CONCENTRO_WORKERS when they are built."""
    cli._parsers.cache_clear()
    yield monkeypatch
    cli._parsers.cache_clear()


_TRIANGLES = ["graphs", "triangles", "--n", "8", "--p", "0.5", "--N", "20", "--eps", "0.5"]


@pytest.mark.parametrize("env,flags,message", [
    ("abc", [], "argument --workers: invalid positive_int value: 'abc'"),
    ("0", [], "argument --workers: invalid positive_int value: '0'"),
    (None, ["--workers", "0"], "argument --workers: invalid positive_int value: '0'"),
    (None, ["--workers", "-3"], "argument --workers: invalid positive_int value: '-3'")])
def test_workers_must_be_a_positive_int(environ, env, flags, message, capsys):
    if env is None:
        environ.delenv("CONCENTRO_WORKERS", raising=False)
    else:
        environ.setenv("CONCENTRO_WORKERS", env)
    assert dispatch(_TRIANGLES + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


def test_workers_echo(environ, tmp_path, capsys):
    environ.delenv("CONCENTRO_WORKERS", raising=False)
    assert dispatch(_TRIANGLES) == 0
    assert "workers=1" in capsys.readouterr().out.splitlines()[1].split()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 0}))
    assert dispatch(_TRIANGLES + ["--config", str(cfg)]) == 2
    assert "argument --workers: invalid positive_int value: '0'" in capsys.readouterr().err
    cli._parsers.cache_clear()
    environ.setenv("CONCENTRO_WORKERS", "2")
    assert dispatch(_TRIANGLES) == 0
    assert "workers=2" in capsys.readouterr().out.splitlines()[1].split()


# ---------------------------------------------------------------------------
# report bodies pinned before the table printer and the split rows were shared

def _poly_file(tmp_path, name, nvars, terms):
    path = str(tmp_path / f"{name}.json")
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(Polynomial(nvars, terms)), fh)
    return path


def _run_body(argv, capsys):
    """The output lines after the version and parameter echo."""
    assert dispatch(argv) == 0
    return capsys.readouterr().out.splitlines()[2:]


def test_mc_table_bodies_pinned(x1x2, tmp_path, capsys):
    const = _poly_file(tmp_path, "const", 2, {(): 2.0})
    assert _run_body(["mc", "moments", "--poly", x1x2, "--N", "20000", "--seed", "3",
                      "--p", "2", "4"], capsys) == [
        "p,value,stderr,N", "2,0.987149640294,0.00986072441468,20000",
        "4,1.70896395278,0.0329062050199,20000"]
    assert _run_body(["mc", "tail", "--poly", x1x2, "--N", "3000", "--seed", "2",
                      "--t", "1.5"], capsys) == [
        "t,probability,wilson_low,wilson_high,N",
        "1.5,0.107666666667,0.0970724257854,0.119264414346,3000"]
    assert _run_body(["mc", "sandwich", "--poly", x1x2, "--N", "5000", "--seed", "4",
                      "--p", "2", "3", "--restarts", "8"], capsys) == [
        "p,empirical,stderr,bound,ratio,status",
        "2,1.01478626211,0.0209791538505,4,0.253696565528,pass",
        "3,1.3963694888,0.0391306593992,5.44948974278,0.256238575482,pass"]
    assert _run_body(["mc", "sandwich", "--poly", const, "--N", "2000", "--seed", "4",
                      "--restarts", "8"], capsys) == [
        "p,empirical,stderr,bound,ratio,status", "2,0,0,0,degenerate,degenerate"]
    assert _run_body(["mc", "sobolev", "--poly", x1x2, "--N", "5000", "--seed", "4",
                      "--p", "2", "3"], capsys) == [
        "p,lhs,rhs,ratio,status", "2,1.01478626211,2.01885842394,0.502653504613,pass",
        "3,1.3963694888,2.72302854511,0.512800165574,pass"]
    assert _run_body(["mc", "sobolev", "--poly", const, "--N", "2000", "--seed", "4"],
                     capsys) == ["p,lhs,rhs,ratio,status", "2,0,0,degenerate,degenerate"]


def test_rmt_body_pinned(tmp_path, capsys):
    xsq = _poly_file(tmp_path, "xsq", 1, {((1, 2),): 1.0})
    assert _run_body(["rmt", "--f", xsq, "--n", "8", "--replicas", "30", "--batch", "16",
                      "--seed", "1", "--t", "1", "3"], capsys) == [
        "# z_mean=7.94138568858 z_stderr=0.410341856766",
        "# sobolev_term=3.97069284429 stderr=0.205170928383 limit=4",
        "t,tail,wilson_low,wilson_high,bound",
        "1,0.566666666667,0.391970095454,0.726227625694,1.63746150616",
        "3,0.233333333333,0.117922392105,0.409286723303,0.330597776443"]


@pytest.mark.parametrize("alpha,digest,total", [
    ("1.5", "513dde771e60fc806664d1f9c319694800896476566c9e0930e1250c7b3ac897",
     "# total=211.432993855"),
    ("2", "e2812fd975e52f237f739e92953025f81ab1a1b8eb5c2c264202cda98f567c02",
     "# total=197.081229814")])
def test_weibull_report_body_pinned(alpha, digest, total, tmp_path, capsys):
    # 30 split rows of a cubic: lower-bound rows at both alphas, merged shapes at 2
    cubic = _poly_file(tmp_path, "cubic", 3, {((1, 1), (2, 1), (3, 1)): 1.0, ((1, 2),): 0.5,
                                              ((2, 1),): -1.0, ((2, 1), (3, 2)): 0.25})
    body = _run_body(["bounds", "--poly", cubic, "--law", "weibull", "--alpha", alpha,
                      "--p", "3", "--restarts", "8"], capsys)
    assert len(body) == 32 and body[-1] == total
    assert hashlib.sha256("\n".join(body).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# bad inputs end in one error line with exit code 2

@pytest.mark.parametrize("argv", [
    ["tail", "--poly", "<x1x2>", "--t", "1", "--CD", "0"],
    ["tail", "--poly", "<x1x2>", "--t", "1", "--CD", "-1"],
    ["graphs", "triangles", "--n", "10", "--p", "0.5", "--N", "20", "--eps", "0.5", "--C", "0"],
    ["rmt", "--f", "<xsq>", "--n", "6", "--replicas", "20", "--CL", "0"]])
def test_tail_constant_must_be_positive(argv, x1x2, tmp_path, capsys):
    files = {"<x1x2>": x1x2, "<xsq>": _poly_file(tmp_path, "xsq", 1, {((1, 2),): 1.0})}
    assert dispatch([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tail constant" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("doc,message", [
    ({"nvars": 2, "terms": [{"coef": 1.0}]}, "polynomial document"),
    ({"nvars": 2, "terms": [[[[1, 1]], 1.0]]}, "polynomial document"),
    ({"nvars": 2, "terms": 5}, "polynomial document"),
    # the constructor refuses a term whose factor is not a (variable, power)
    # pair or whose coefficient is a bool or a string
    ({"nvars": 2, "terms": [{"exps": [[1, 1, 1]], "coef": 1.0}]},
     "term [[1, 1, 1]] has a factor [1, 1, 1] that is not a (variable, power) pair"),
    ({"nvars": 2, "terms": [{"exps": "x", "coef": 1.0}]},
     "term 'x' has a factor 'x' that is not a (variable, power) pair"),
    ({"nvars": 2, "terms": [{"exps": [[1, 1]], "coef": "abc"}]},
     "term ((1, 1),) has a coefficient 'abc' that is not a number"),
    ({"nvars": 2, "terms": [{"exps": [[1, 1]], "coef": True}]},
     "term ((1, 1),) has a coefficient True that is not a number")],
    ids=[f"doc{i}" for i in range(7)])
def test_malformed_polynomial_file_exit_2(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["bounds", "--poly", str(path), "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,doc,field", [
    (["norm", "--partition", "1", "--tensor"], {"order": -1, "dim": 2, "values": [1]},
     "tensor order"),
    (["norm", "--partition", "1|2", "--tensor"], {"order": 2, "dim": -2, "values": [1, 2, 3, 4]},
     "tensor dim"),
    (["norm", "--partition", "1|2", "--tensor"], {"order": 2, "dim": 2.9, "values": [1, 2, 3, 4]},
     "tensor dim"),
    (["norm", "--partition", "1", "--tensor"], {"order": 1.5, "dim": 2, "values": [1, 2]},
     "tensor order"),
    (["bounds", "--p", "2", "--poly"],
     {"nvars": 2.7, "terms": [{"exps": [[1, 1], [2, 1]], "coef": 1.0}]}, "nvars"),
    (["bounds", "--p", "2", "--poly"],
     {"nvars": 2, "terms": [{"exps": [[1, 1.5], [2, 1]], "coef": 1.0}]}, "a power"),
    (["bounds", "--p", "2", "--poly"],
     {"nvars": 2, "terms": [{"exps": [[1.5, 1]], "coef": 1.0}]}, "a variable"),
    # a bool is refused after the equal valid count as well as alone
    (["bounds", "--p", "2", "--poly"],
     {"nvars": 2, "terms": [{"exps": [[True, 1]], "coef": 1.0}]}, "a variable"),
    (["bounds", "--p", "2", "--poly"],
     {"nvars": 2, "terms": [{"exps": [[1, 1]], "coef": 1.0},
                            {"exps": [[True, 1]], "coef": 1.0}]}, "a variable"),
    (["bounds", "--p", "2", "--poly"],
     {"nvars": 2, "terms": [{"exps": [[2, 1]], "coef": 1.0},
                            {"exps": [[2, True]], "coef": 1.0}]}, "a power")])
def test_count_in_an_input_file_must_be_a_whole_number_exit_2(argv, doc, field, tmp_path,
                                                              capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert dispatch(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} must be a whole number >= 1" in captured.err
    assert captured.err.count("\n") == 1


def test_tensor_file_with_non_numeric_values_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # objects, and ragged rows that numpy cannot make an array of
    for order, values in [(1, [{"a": 1}, {"a": 2}]), (2, [[1], [1, 2]])]:
        path.write_text(json.dumps({"order": order, "dim": 2, "values": values}))
        assert dispatch(["norm", "--tensor", str(path), "--partition", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric values" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
@pytest.mark.parametrize("argv", [["mc", "moments", "--N", "2000", "--poly"],
                                  ["mc", "tail", "--N", "2000", "--poly"],
                                  ["rmt", "--n", "6", "--replicas", "20", "--f"]])
def test_non_finite_polynomial_coefficient_exit_2(argv, token, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"nvars": 1, "terms": [{{"exps": [[1, 1]], "coef": {token}}}]}}')
    assert dispatch(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err and captured.err.count("\n") == 1


def test_tensor_file_with_a_non_finite_value_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 1, "dim": 2, "values": [1.0, NaN]}')
    assert dispatch(["norm", "--tensor", str(path), "--partition", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err and captured.err.count("\n") == 1


def test_every_float_option_rejects_nan(capsys):
    """Every leaf's float options take `cli.real`, which refuses NaN and keeps inf."""
    assert cli.real("inf") == float("inf") and cli.real("-2.5") == -2.5
    walked = 0
    for parser, _ in cli._parsers()[1].values():
        words = parser.prog.split()[1:]
        for a in parser._actions:
            assert a.type is not float, f"{parser.prog} {a.dest}"
            if a.type is cli.real:
                flag = a.option_strings[0]
                count = a.nargs if isinstance(a.nargs, int) else 1
                assert dispatch(words + [flag] + ["nan"] * count) == 2
                err = capsys.readouterr().err
                assert f"argument {flag}: invalid float value: 'nan'" in err, parser.prog
                walked += 1
    assert walked == 31


@pytest.mark.parametrize("extra, message", [
    (["--p", "inf"], "p=inf must be finite"),
    (["--p", "4", "--gamma", "0.5", "--L", "inf"], "L=inf must be positive and finite"),
    (["--p", "4", "--gamma", "inf", "--L", "1"], "gamma=inf must be finite")])
def test_moment_report_with_an_infinite_parameter_exit_2(extra, message, x1x2, capsys):
    assert dispatch(["bounds", "--poly", x1x2] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("mode", ["moments", "sandwich", "sobolev"])
def test_mc_moments_that_overflow_exit_2(mode, tmp_path, capsys):
    # finite coefficients whose sample deviations overflow in their squares
    path = _poly_file(tmp_path, "big", 2, {((1, 1),): 1e200, ((1, 2), (2, 2)): 1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["mc", mode, "--poly", path, "--N", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p=2 moment is not finite" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,terms,message", [
    # finite values of 1e306 x^4 whose sum overflows
    (["mc", "tail", "--t", "1", "--N", "2000", "--poly"], {((1, 4),): 1e306},
     "sample mean is not finite"),
    (["rmt", "--n", "6", "--replicas", "20", "--t", "1", "--f"], {((1, 2),): 1e200},
     "semicircle energy of f'"),
    # 1e307 x1^4 overflows in the evaluator's products
    (["mc", "moments", "--N", "2000", "--poly"], {((1, 4),): 1e307}, "p=2 moment is not finite"),
    (["mc", "tail", "--t", "1", "--N", "2000", "--poly"], {((1, 4),): 1e307},
     "sample mean is not finite"),
    (["mc", "sobolev", "--N", "2000", "--poly"], {((1, 4),): 1e307}, "p=2 moment is not finite"),
    # f' = 1e154 x: a finite semicircle energy, but f'^2 overflows on the sample
    (["rmt", "--n", "6", "--replicas", "20", "--t", "1", "--f"], {((1, 2),): 5e153},
     "standard error is not finite")])
def test_a_sample_or_energy_that_overflows_exit_2(argv, terms, message, tmp_path, capsys):
    path = _poly_file(tmp_path, "big", 1, terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(argv + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1
