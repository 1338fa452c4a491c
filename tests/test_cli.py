"""End-to-end CLI tests: every subcommand plus exit codes and the
config-file override path."""

import argparse
import csv
import json
import math

import pytest

import mssv.calibration
import mssv.cli
import mssv.mc
import mssv.quadrature
from mssv import (CharFnOverflowError, HiddenState, McConfig, McModelParams,
                  ModelParams, QuadratureConfig, price_heston_call_batch,
                  price_vix_heston_strike_batch)
from mssv.cli import main
from mssv.mc import mc_price_spx_strikes, mc_price_vix_strikes
from mssv.spx import SpxOptionSpec, price_spx

from .conftest import FITTED, FITTED_HESTON
from .oracles import (VixOptionSpec, mc_call_estimates, mc_vix_samples,
                      price_vix, simulate_terminal)

PARAM_FLAGS = ["--kappa", "3.58", "--theta", "0.021", "--sigma", "0.347",
               "--rho", "-1", "--epsilon", "0.0096", "--w3-eps", "0.015",
               "--r", "0.02"]
STATE_FLAGS = ["--y", "0.0234", "--z", "0.0194"]
CONFIG_PARAMS = ("kappa=3.58\ntheta=0.021\nsigma=0.347\nrho=-1\n"
                 "epsilon=0.0096\nw3_eps=0.015\n")


def test_price_vix_output(capsys):
    rc = main(["price-vix", *PARAM_FLAGS, *STATE_FLAGS,
               "--strikes", "15,20,25", "--tau", "0.08219178"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.782621183" in out  # 10 significant digits
    assert len(out.strip().splitlines()) == 4


def test_price_spx_output(capsys):
    rc = main(["price-spx", *PARAM_FLAGS, *STATE_FLAGS, "--x", "2000",
               "--strikes", "2000", "--tau", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "81.84315984" in out


def test_config_file_supplies_params(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("kappa = 3.58\ntheta = 0.021\nsigma = 0.347\n"
                   "rho = -1\nepsilon = 0.0096\nw3_eps = 0.015\nr = 0.02\n"
                   "# comment line\n")
    rc = main(["price-vix", "--config", str(cfg), *STATE_FLAGS,
               "--strikes", "20", "--tau", "0.08219178"])
    assert rc == 0
    assert "1.782621183" in capsys.readouterr().out


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("kappa=3.58\ntheta=0.021\nsigma=0.347\nrho=-1\n"
                   "epsilon=0.0096\nw3_eps=0.5\n")
    rc = main(["price-vix", "--config", str(cfg), "--w3-eps", "0.015",
               *STATE_FLAGS, "--strikes", "20", "--tau", "0.08219178"])
    assert rc == 0
    assert "1.782621183" in capsys.readouterr().out


def test_unknown_config_key_is_a_data_error(tmp_path, capsys):
    params = ("kappa=3.58\ntheta=0.021\nsigma=0.347\nrho=-1\n"
              "epsilon=0.0096\nw3_eps=0.015\n")
    for command, extra, flags in (
            ("validate", "scheme=euler\n",
             ["--vix-strikes", "20", "--paths", "10000"]),
            ("price-vix", "abstol=1e-6\n",
             ["--strikes", "20", "--tau", "0.08219178"])):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(params + extra)
        rc = main([command, "--config", str(cfg), *STATE_FLAGS, *flags])
        assert rc == 2
        key = extra.split("=")[0]
        assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys):
    for command, extra, flags, message in (
            ("price-vix", "z=abc\n",
             ["--y", "0.0234", "--strikes", "20", "--tau", "0.08219178"],
             "argument --z: invalid float value: 'abc'"),
            ("validate", "paths=1e5\n", [*STATE_FLAGS, "--vix-strikes", "20"],
             "argument --paths: invalid int value: '1e5'")):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(CONFIG_PARAMS + extra)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), *flags])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    # price-vix has no --x: the shared file's x is not passed to it
    cfg.write_text(CONFIG_PARAMS
                   + "paths=50000\nmax_iter=10\nstate_seed=3\nx=2000\n")
    rc = main(["price-vix", "--config", str(cfg), *STATE_FLAGS,
               "--strikes", "20", "--tau", "0.08219178"])
    assert rc == 0
    assert "1.782621183" in capsys.readouterr().out


def test_config_x_and_eta_are_used_and_flags_override_them(tmp_path,
                                                          capsys):
    cfg = tmp_path / "validate.cfg"
    cfg.write_text(CONFIG_PARAMS + "x=2100\neta=-0.5\n")
    run = ["validate", *STATE_FLAGS, "--spx-strikes", "2000", "--spx-tau",
           "0.02", "--paths", "10000", "--steps-per-eps", "2"]
    for flags, x, eta in (
            (["--config", str(cfg)], "2100", "-0.5"),
            (["--config", str(cfg), "--x", "1900", "--eta", "-0.25"],
             "1900", "-0.25"),
            (PARAM_FLAGS, "2000", "-1")):  # the defaults
        assert main([*run, *flags]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert f" x={x} " in header and f"(eta={eta}," in header


def _subparsers(parser):
    """{name: subparser} of an mssv parser."""
    commands, = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_every_config_key_is_a_value_flag():
    # a run builds its own subcommand's flags: the union over them all
    value_flags = {a.dest for name in _subparsers(mssv.cli.build_parser(""))
                   for a in _subparsers(mssv.cli.build_parser(name))[name]
                   ._actions
                   if isinstance(a, argparse._StoreAction)
                   and a.option_strings == [f"--{a.dest.replace('_', '-')}"]}
    assert mssv.cli._CONFIG_KEYS <= value_flags


def test_a_run_builds_only_its_subcommand_flags(monkeypatch, capsys):
    names = list(_subparsers(mssv.cli.build_parser("")))
    assert names == ["price-spx", "price-vix", "calibrate", "imvol-surface",
                     "validate", "error-report", "make-synthetic"]
    for name in names:
        subs = _subparsers(mssv.cli.build_parser(name))
        assert list(subs) == names
        # the others keep only -h
        assert all(len(sp._actions) == 1 for other, sp in subs.items()
                   if other != name)
        assert len(subs[name]._actions) > 10
    built, build = [], mssv.cli.build_parser

    def spy(command):
        built.append(command)
        return build(command)

    monkeypatch.setattr(mssv.cli, "build_parser", spy)
    assert main(["price-vix", *PARAM_FLAGS, *STATE_FLAGS, "--strikes", "20",
                 "--tau", "0.08219178"]) == 0
    for argv in (["--version"], ["--help"], ["price-spx", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert built == ["price-vix", "", "", "price-spx"]
    assert "{price-spx,price-vix,calibrate" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["price-vix", "--strikes"])  # missing value
    assert exc.value.code == 1


def test_data_error_exit_code(capsys):
    rc = main(["calibrate", "--model", "heston", "--quotes", "/absent.csv",
               "--out", "/tmp/x.json"])
    assert rc == 2


def test_numerical_error_exit_code(capsys):
    # negative kappa: model construction fails
    rc = main(["price-vix", "--kappa", "-1", "--theta", "0.021",
               "--sigma", "0.347", "--rho", "-1", "--epsilon", "0.0096",
               "--w3-eps", "0.015", *STATE_FLAGS,
               "--strikes", "20", "--tau", "0.1"])
    assert rc == 3


@pytest.mark.parametrize("command, flag", [
    ("price-spx", "--theta"), ("price-spx", "--w3-eps"), ("price-spx", "--y"),
    ("price-vix", "--kappa")])
def test_non_finite_model_input_fails_before_pricing(monkeypatch, capsys,
                                                     command, flag):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a nan input")

    monkeypatch.setattr(mssv.quadrature, "integrate", no_quadrature)
    name = flag[2:].replace("-", "_")
    argv = [command, *PARAM_FLAGS, *STATE_FLAGS, "--strikes", "20",
            "--tau", "0.1", flag, "nan"]
    rc = main(argv + (["--x", "2000"] if command == "price-spx" else []))
    assert rc == 3
    assert (f"numerical failure: {name} must be finite, got nan"
            in capsys.readouterr().err)


def test_calibrate_prints_each_unconverged_step1_solve(tmp_path, capsys):
    quotes = tmp_path / "quotes.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "1"]) == 0
    out = tmp_path / "heston.json"
    capsys.readouterr()
    assert main(["calibrate", "--model", "heston", "--quotes", str(quotes),
                 "--out", str(out), "--max-iter", "2",
                 "--restarts", "2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    runs = json.loads(out.read_text())["restarts"]
    assert [r["success"] for r in runs if r["step"] == "step1"] == [False] * 2
    assert [line for line in printed if "unconverged" in line] == [
        f"step1 restart {k} unconverged: {runs[k]['message']}" for k in (0, 1)]


def test_calibrate_rejects_restarts_below_one(tmp_path, capsys):
    quotes = tmp_path / "quotes.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "1"]) == 0
    out = tmp_path / "fit.json"
    rc = main(["calibrate", "--model", "heston", "--quotes", str(quotes),
               "--out", str(out), "--restarts", "0"])
    assert rc == 3
    assert "restarts must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_rejects_a_negative_seed_before_loading_quotes(tmp_path,
                                                                 capsys):
    # the quotes file does not exist: reading it would be a data error
    rc = main(["calibrate", "--model", "msv", "--quotes",
               str(tmp_path / "absent.csv"), "--out",
               str(tmp_path / "fit.json"), "--seed", "-1"])
    assert rc == 3
    assert "seed must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--abs-tol", "nan"), ("--rel-tol", "inf"), ("--abs-tol", "0")])
def test_bad_quadrature_setting_fails_before_quadrature(monkeypatch, capsys,
                                                        flag, value):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a bad setting")

    monkeypatch.setattr(mssv.quadrature, "integrate", no_quadrature)
    rc = main(["price-spx", *PARAM_FLAGS, *STATE_FLAGS, "--x", "2000",
               "--strikes", "2000", "--tau", "0.25", flag, value])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_full_pipeline(tmp_path, capsys):
    quotes = tmp_path / "quotes.csv"
    rc = main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
               "--n-dates", "2", "--state-seed", "4"])
    assert rc == 0

    heston_out = tmp_path / "heston.json"
    rc = main(["calibrate", "--model", "heston", "--quotes", str(quotes),
               "--out", str(heston_out), "--max-iter", "40",
               "--restarts", "1", "--abs-tol", "1e-6", "--rel-tol", "1e-6"])
    assert rc == 0
    doc = json.loads(heston_out.read_text())
    assert doc["model"] == "heston"
    assert set(doc["params"]) == {"kappa", "theta", "sigma", "rho", "r"}
    assert len(doc["states"]) == 2

    msv_out = tmp_path / "msv.json"
    rc = main(["calibrate", "--model", "msv", "--quotes", str(quotes),
               "--out", str(msv_out), "--max-iter", "30", "--restarts", "1",
               "--abs-tol", "1e-6", "--rel-tol", "1e-6"])
    assert rc == 0
    msv_doc = json.loads(msv_out.read_text())
    assert {"epsilon", "w3_eps"} <= set(msv_doc["params"])

    table = tmp_path / "errors.csv"
    rc = main(["error-report", "--quotes", str(quotes),
               "--heston-result", str(heston_out),
               "--msv-result", str(msv_out), "--out", str(table),
               "--abs-tol", "1e-6", "--rel-tol", "1e-6"])
    assert rc == 0
    header = table.read_text().splitlines()[0]
    assert header.startswith("underlying,stat")
    assert "tau<0.05:heston" in header and "total:o/h" in header


def test_calibrate_rejects_a_zero_spx_strike_at_load(tmp_path, capsys):
    # the row would knock its date out of step 2: the contour pass raises
    # DomainError on a non-positive strike for the whole date
    quotes, with_zero = tmp_path / "quotes.csv", tmp_path / "with_zero.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "2"]) == 0
    with_zero.write_text(quotes.read_text()
                         + "2016-01-05,SPX,call,0,2016-03-18,2000,100,2000\n")
    fits = []
    for path in (quotes, with_zero):
        out = tmp_path / f"{path.stem}.json"
        capsys.readouterr()
        assert main(["calibrate", "--model", "heston", "--quotes", str(path),
                     "--out", str(out), "--max-iter", "50",
                     "--restarts", "1"]) == 0
        fits.append(json.loads(out.read_text()))
    assert "SPX strike must be positive, got 0.0" in capsys.readouterr().err
    assert fits[1] == fits[0]


def test_calibrate_prints_each_skipped_date(tmp_path, capsys):
    quotes = tmp_path / "quotes.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "1"]) == 0
    # a VIX close below the state-free floor of any candidate
    with open(quotes, "a") as fh:
        fh.write("2017-06-01,VIX,call,5,2017-07-01,0.8,100,4.0\n")
    out = tmp_path / "heston.json"
    capsys.readouterr()
    rc = main(["calibrate", "--model", "heston", "--quotes", str(quotes),
               "--out", str(out), "--max-iter", "10", "--restarts", "1"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "skipped dates: 1\n  2017-06-01: InfeasibleStateError\n" in printed
    assert json.loads(out.read_text())["skipped_dates"] == [
        {"date": "2017-06-01", "error": "InfeasibleStateError"}]


def test_calibrate_prints_each_date_step2_charged(monkeypatch, tmp_path,
                                                  capsys):
    quotes = tmp_path / "quotes.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "2"]) == 0

    def overflow(*args):
        raise CharFnOverflowError("transform exponent out of range")

    monkeypatch.setattr(mssv.calibration, "price_heston_call_batch", overflow)
    out = tmp_path / "heston.json"
    capsys.readouterr()
    assert main(["calibrate", "--model", "heston", "--quotes", str(quotes),
                 "--out", str(out), "--max-iter", "10",
                 "--restarts", "1"]) == 0
    printed = capsys.readouterr().out
    assert "skipped dates: 2\n  2016-01-05: CharFnOverflowError " \
        "(charged, not fitted, in step 2)\n" in printed
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 2
    assert doc["skipped_dates"] == [
        {"date": d, "error": "CharFnOverflowError", "step": "step2"}
        for d in ("2016-01-05", "2016-01-12")]


def test_fits_without_spx_quotes_skip_step2_and_report_vix(tmp_path,
                                                           capsys):
    quotes, vix_only = tmp_path / "quotes.csv", tmp_path / "vix.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "1"]) == 0
    lines = quotes.read_text().splitlines(keepends=True)
    vix_only.write_text("".join(line for line in lines
                                if ",SPX," not in line))
    fits = {}
    for model in ("heston", "msv"):
        fits[model] = tmp_path / f"{model}.json"
        capsys.readouterr()
        rc = main(["calibrate", "--model", model, "--quotes", str(vix_only),
                   "--out", str(fits[model]), "--max-iter", "10",
                   "--restarts", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "rho" not in printed and ", step2 = skipped\n" in printed
        doc = json.loads(fits[model].read_text())
        assert not {"rho", "w3_eps"} & set(doc["params"])
        assert doc["step_objectives"][1] is None
    # VIX prices read neither rho nor w3_eps; SPX prices need both
    report = ["error-report", "--heston-result", str(fits["heston"]),
              "--msv-result", str(fits["msv"]),
              "--out", str(tmp_path / "errors.csv")]
    assert main([*report, "--quotes", str(vix_only)]) == 0
    printed = capsys.readouterr().out
    assert "VIX: heston mean" in printed and "SPX" not in printed
    assert main([*report, "--quotes", str(quotes)]) == 2
    assert "has SPX quotes, but a calibration result has no rho" in \
        capsys.readouterr().err


def test_imvol_surface(tmp_path, capsys):
    out = [str(tmp_path / n) for n in ("c.csv", "u.csv", "d.csv")]
    rc = main(["imvol-surface", *PARAM_FLAGS, "--kind", "vix", *STATE_FLAGS,
               "--uncorrected-z", "0.0197", "--strikes", "19,20,21",
               "--taus", "0.05,0.0822", "--out-corrected", out[0],
               "--out-uncorrected", out[1], "--out-diff", out[2]])
    assert rc == 0
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "strike,0.05,0.0822"
    assert len(lines) == 4


def test_validate_command(capsys):
    rc = main(["validate", *PARAM_FLAGS, *STATE_FLAGS, "--x", "2000",
               "--vix-strikes", "20", "--vix-tau", "0.08219178",
               "--spx-strikes", "", "--paths", "50000", "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dev/se" in out
    assert "points outside 3 SE" in out


VALIDATE = ["validate", *PARAM_FLAGS, *STATE_FLAGS, "--spx-strikes",
            "1900,2000", "--vix-strikes", "18,22", "--paths", "10000",
            "--steps-per-eps", "2", "--seed", "5"]


def test_validate_rejects_a_negative_seed(capsys):
    assert main([*VALIDATE[:-1], "-1"]) == 3
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def _traced_validate(monkeypatch, argv):
    """main(argv)'s exit code, the with_x of each simulation it ran and
    the (SPX, VIX) estimates of each of its mc_price_strikes calls."""
    runs, priced = [], []
    simulate, price = mssv.mc._simulate, mssv.cli.mc_price_strikes

    def counted(*args, **kwargs):
        runs.append(kwargs["with_x"])
        return simulate(*args, **kwargs)

    def recorded(*args, **kwargs):
        priced.append(price(*args, **kwargs))
        return priced[-1]

    monkeypatch.setattr(mssv.mc, "_simulate", counted)
    monkeypatch.setattr(mssv.cli, "mc_price_strikes", recorded)
    return main(argv), runs, priced


def test_validate_simulates_once_per_maturity(monkeypatch, capsys):
    mp = McModelParams(ModelParams(**FITTED), eta=-1.0)
    state, cfg = HiddenState(y=0.0234, z=0.0194), McConfig(10_000, 5, 2)
    spx, vix = [1900.0, 2000.0], [18.0, 22.0]
    rc, runs, priced = _traced_validate(
        monkeypatch, [*VALIDATE, "--spx-tau", "0.05", "--vix-tau", "0.05"])
    assert (rc, runs) == (0, [True])
    (spx_ests, vix_ests), = priced
    assert spx_ests == mc_price_spx_strikes(mp, state, 2000.0, spx, 0.05, cfg)
    _, yt, zt = simulate_terminal(mp, state, 2000.0, 0.05, cfg)
    assert vix_ests == mc_call_estimates(mc_vix_samples(mp, yt, zt), vix,
                                         0.05, FITTED["r"])
    shared = capsys.readouterr().out

    # at two maturities, the two simulations of the one-grid pricers
    rc, runs, priced = _traced_validate(
        monkeypatch, [*VALIDATE, "--spx-tau", "0.05", "--vix-tau", "0.06"])
    assert (rc, runs) == (0, [True, False])
    assert priced == [
        (mc_price_spx_strikes(mp, state, 2000.0, spx, 0.05, cfg), []),
        ([], mc_price_vix_strikes(mp, state, vix, 0.06, cfg))]
    apart = capsys.readouterr().out
    # the SPX rows do not depend on whether the VIX grid shares their paths
    assert shared.split("VIX")[0] == apart.split("VIX")[0]


def test_validate_needs_a_valid_x_for_an_spx_grid_only(capsys):
    vix_only = ["validate", *PARAM_FLAGS, *STATE_FLAGS, "--x", "-1",
                "--vix-strikes", "20", "--vix-tau", "0.05", "--spx-tau",
                "0.05", "--paths", "10000", "--steps-per-eps", "2"]
    assert main(vix_only) == 0
    assert "VIX tau=0.05" in capsys.readouterr().out
    for tau in ("0.05", "0.06"):
        assert main([*vix_only, "--spx-strikes", "2000", "--spx-tau",
                     tau]) == 3
        assert "x0 must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--vix-tau", "inf", "horizon must be positive and finite"),
    ("--vix-tau", "nan", "horizon must be positive and finite"),
    ("--spx-tau", "inf", "horizon must be positive and finite"),
    ("--x", "inf", "x0 must be positive and finite"),
    ("--x", "nan", "x0 must be positive and finite")])
def test_validate_rejects_a_non_finite_time_or_spot(monkeypatch, capsys, flag,
                                                    value, message):
    rc, runs, _ = _traced_validate(monkeypatch, [*VALIDATE, flag, value])
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    if flag == "--x":
        assert runs == []  # rejected before any simulation


def test_validate_checks_every_maturity_before_simulating(monkeypatch,
                                                          capsys):
    rc, runs, _ = _traced_validate(monkeypatch, [
        *VALIDATE, "--spx-strikes", "2000", "--vix-strikes", "20",
        "--vix-tau", "nan"])
    assert (rc, runs) == (3, [])
    out, err = capsys.readouterr()
    assert "SPX" not in out and "2000" not in out
    assert "horizon must be positive and finite, got nan" in err


@pytest.mark.parametrize("w3_eps", ["-0.015", "0"])
def test_validate_names_the_eta_that_splits_w3_eps(capsys, w3_eps):
    # at the default eta of -1, nu > 0 needs w3_eps > 0
    flags = [*VALIDATE]
    flags[flags.index("--w3-eps") + 1] = w3_eps
    assert main(flags) == 3
    err = capsys.readouterr().err
    assert "opposite sign to w3_eps" in err
    assert "w3_eps = 0 leaves no nu > 0" in err


def test_validate_with_no_strike_grid_is_a_data_error(capsys):
    assert main(["validate", *PARAM_FLAGS, *STATE_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "--spx-strikes" in err and "--vix-strikes" in err


SURFACE_OUT = ["--out-corrected", "OUT/c.csv", "--out-uncorrected",
               "OUT/u.csv", "--out-diff", "OUT/d.csv"]


@pytest.mark.parametrize("argv, flag", [
    (["price-spx", *STATE_FLAGS, "--x", "2000", "--strikes", "",
      "--tau", "0.25"], "--strikes"),
    (["price-vix", *STATE_FLAGS, "--strikes", ",", "--tau", "0.1", "--put"],
     "--strikes"),
    (["imvol-surface", *STATE_FLAGS, "--kind", "spx", "--strikes", "",
      "--taus", "0.1", *SURFACE_OUT], "--strikes"),
    (["imvol-surface", *STATE_FLAGS, "--kind", "vix", "--strikes", "20",
      "--taus", "", *SURFACE_OUT], "--taus"),
    (["make-synthetic", "--n-dates", "0", "--out", "OUT/q.csv"], "--n-dates"),
    (["make-synthetic", "--n-dates", "-2", "--out", "OUT/q.csv"],
     "--n-dates")])
def test_an_empty_grid_or_date_count_is_a_data_error(monkeypatch, tmp_path,
                                                     capsys, argv, flag):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on an empty grid")

    monkeypatch.setattr(mssv.quadrature, "integrate", no_quadrature)
    rc = main([argv[0], *PARAM_FLAGS,
               *[a.replace("OUT", str(tmp_path)) for a in argv[1:]]])
    assert rc == 2
    assert f"data error: {flag}: need at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["price-vix", *STATE_FLAGS, "--strikes", "20,abc", "--tau", "0.1"],
     "--strikes"),
    (["imvol-surface", *STATE_FLAGS, "--kind", "vix", "--strikes", "20",
      "--taus", "0.1,x", *SURFACE_OUT], "--taus"),
    (["validate", *STATE_FLAGS, "--spx-strikes", "2000,abc"],
     "--spx-strikes"),
    (["validate", *STATE_FLAGS, "--vix-strikes", "abc"], "--vix-strikes"),
    (["calibrate", "--model", "heston", "--quotes", "OUT/q.csv", "--out",
      "OUT/fit.json", "--split-date", "2016-13-01"], "--split-date"),
    (["make-synthetic", "--out", "OUT/q.csv", "--start-date",
      "2016-13-01"], "--start-date")])
def test_a_value_that_fails_to_parse_is_a_usage_error(tmp_path, capsys,
                                                      argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *PARAM_FLAGS,
              *[a.replace("OUT", str(tmp_path)) for a in argv[1:]]])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mssv {argv[0]} ")
    assert f"argument {flag}: invalid" in err
    assert list(tmp_path.iterdir()) == []


def test_imvol_surface_writes_nan_where_inversion_fails(tmp_path, capsys):
    # SPX K = 2200 prices at -1.84; the VIX K = 10 price has no normal vol
    out = [tmp_path / n for n in ("c.csv", "u.csv", "d.csv")]
    for flags, bad, good in (
            (["--kind", "spx", "--x", "2000", "--strikes", "2000,2200",
              "--taus", "0.0822"], "2200", "2000"),
            (["--kind", "vix", "--strikes", "10,20", "--taus", "0.02"],
             "10", "20")):
        rc = main(["imvol-surface", *PARAM_FLAGS, *STATE_FLAGS, *flags,
                   "--out-corrected", str(out[0]),
                   "--out-uncorrected", str(out[1]),
                   "--out-diff", str(out[2])])
        assert rc == 0
        rows = dict(line.split(",")
                    for line in out[0].read_text().splitlines()[1:])
        assert rows[bad] == "nan"
        assert math.isfinite(float(rows[good]))


def _parity_prices(model):
    """Each quote's price under one model, puts by parity (abs_tol 1e-12)."""
    quad = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    x, r, vix_tau, spx_tau = 2000.0, FITTED["r"], 30 / 365, 73 / 365
    if model == "msv":
        params, state = ModelParams(**FITTED), HiddenState(0.0234, 0.0194)
        vix = [price_vix(VixOptionSpec(20.0, vix_tau, c), state, params,
                         quad).total for c in (True, False)]
        spx = [price_spx(SpxOptionSpec(x, 2000.0, spx_tau, c), state, params,
                         quad).total for c in (True, False)]
        return vix + spx
    h = FITTED_HESTON
    call, fwd = (price_vix_heston_strike_batch(
        [k], vix_tau, 0.04, h["kappa"], h["theta"], h["sigma"], r, quad)[0]
        for k in (20.0, 0.0))
    spx = price_heston_call_batch(x, [2000.0], spx_tau, r, h["kappa"],
                                  h["theta"], h["sigma"], h["rho"], 0.04,
                                  quad)[0]
    return [call, call - fwd + 20.0 * math.exp(-r * vix_tau),
            spx, spx - x + 2000.0 * math.exp(-r * spx_tau)]


def test_error_report_prices_puts_by_parity_for_both_models(tmp_path, capsys):
    (tmp_path / "heston.json").write_text(json.dumps({
        "model": "heston", "params": {**FITTED_HESTON, "r": FITTED["r"]},
        "states": [{"date": "2016-01-05", "z": 0.04}]}))
    (tmp_path / "msv.json").write_text(json.dumps({
        "model": "msv", "params": FITTED,
        "states": [{"date": "2016-01-05", "y": 0.0234, "z": 0.0194}]}))
    for model, column in (("heston", "total:heston"), ("msv", "total:ours")):
        prices = _parity_prices(model)
        rows = [("VIX", "call", 20, "2016-02-04", 19.9),
                ("VIX", "put", 20, "2016-02-04", 19.9),
                ("SPX", "call", 2000, "2016-03-18", 2000),
                ("SPX", "put", 2000, "2016-03-18", 2000)]
        quotes = tmp_path / f"{model}_quotes.csv"
        quotes.write_text(
            "date,underlying,type,strike,expiry,price,volume,underlying_close\n"
            + "".join(f"2016-01-05,{u},{t},{k},{e},{p!r},100,{c}\n"
                      for (u, t, k, e, c), p in zip(rows, prices)))
        table = tmp_path / f"{model}_errors.csv"
        rc = main(["error-report", "--quotes", str(quotes), "--no-filters",
                   "--heston-result", str(tmp_path / "heston.json"),
                   "--msv-result", str(tmp_path / "msv.json"),
                   "--out", str(table), "--abs-tol", "1e-12",
                   "--rel-tol", "1e-12"])
        assert rc == 0
        lines = list(csv.reader(table.read_text().splitlines()))
        for row in lines[1:]:
            if row[1] == "mean":
                total = float(row[lines[0].index(column)])
                assert total == pytest.approx(0.0, abs=1e-9), (model, row[0])


def test_validate_reports_a_strike_no_path_ends_in_the_money(capsys):
    rc = main(["validate", *PARAM_FLAGS, *STATE_FLAGS, "--vix-strikes",
               "20,80", "--paths", "20000", "--steps-per-eps", "2",
               "--vix-tau", "0.02"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2].split()[0] == "20" and rows[2].split()[3] != "0"
    k, analytic, mc, se, dev, *flag = rows[3].split()
    assert (k, mc, se, dev) == ("80", "0", "0", "nan")
    assert " ".join(flag) == "NO PATH IN THE MONEY"
    assert rows[4] == "points outside 3 SE: 0"


def _error_report_files(tmp_path):
    """A one-quote CSV and valid heston and msv results for its date."""
    (tmp_path / "quotes.csv").write_text(
        "date,underlying,type,strike,expiry,price,volume,underlying_close\n"
        "2016-01-05,VIX,call,20,2016-02-04,1.8,100,19.9\n")
    (tmp_path / "heston.json").write_text(json.dumps({
        "model": "heston", "params": {**FITTED_HESTON, "r": FITTED["r"]},
        "states": [{"date": "2016-01-05", "z": 0.04}]}))
    (tmp_path / "msv.json").write_text(json.dumps({
        "model": "msv", "params": FITTED,
        "states": [{"date": "2016-01-05", "y": 0.0234, "z": 0.0194}]}))
    return ["error-report", "--quotes", str(tmp_path / "quotes.csv"),
            "--no-filters", "--out", str(tmp_path / "errors.csv")]


def test_error_report_missing_result_file_is_a_data_error(tmp_path, capsys):
    argv = _error_report_files(tmp_path)
    rc = main([*argv, "--heston-result", str(tmp_path / "absent.json"),
               "--msv-result", str(tmp_path / "msv.json")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_error_report_heston_result_as_msv_result_is_a_data_error(tmp_path,
                                                                   capsys):
    argv = _error_report_files(tmp_path)
    rc = main([*argv, "--heston-result", str(tmp_path / "heston.json"),
               "--msv-result", str(tmp_path / "heston.json")])
    assert rc == 2
    assert "heston.json" in capsys.readouterr().err
    # the valid pair goes through
    assert main([*argv, "--heston-result", str(tmp_path / "heston.json"),
                 "--msv-result", str(tmp_path / "msv.json")]) == 0


def test_error_report_result_of_the_other_model_is_a_data_error(tmp_path,
                                                                 capsys):
    argv = _error_report_files(tmp_path)
    rc = main([*argv, "--heston-result", str(tmp_path / "msv.json"),
               "--msv-result", str(tmp_path / "msv.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "msv.json" in err and "'msv', not 'heston'" in err


@pytest.mark.parametrize("field, value", [
    ("sigma", 0.0), ("sigma", math.nan), ("rho", 0.5), ("z", math.nan),
    ("z", -0.01)])
def test_error_report_bad_heston_result_is_a_data_error(tmp_path, capsys,
                                                        field, value):
    argv = _error_report_files(tmp_path)
    doc = json.loads((tmp_path / "heston.json").read_text())
    where = doc["states"][0] if field == "z" else doc["params"]
    where[field] = value
    (tmp_path / "heston.json").write_text(json.dumps(doc))
    rc = main([*argv, "--heston-result", str(tmp_path / "heston.json"),
               "--msv-result", str(tmp_path / "msv.json")])
    assert rc == 2
    assert "heston.json" in capsys.readouterr().err


def test_calibrate_into_a_missing_directory_fails_before_fitting(
        tmp_path, capsys, monkeypatch):
    quotes = tmp_path / "quotes.csv"
    assert main(["make-synthetic", *PARAM_FLAGS, "--out", str(quotes),
                 "--n-dates", "1"]) == 0

    def no_fit(*args, **kwargs):
        raise AssertionError("calibrated although --out is not writable")

    monkeypatch.setattr(mssv.cli, "calibrate_msv", no_fit)
    out = tmp_path / "absent" / "msv.json"
    rc = main(["calibrate", "--model", "msv", "--quotes", str(quotes),
               "--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err
    assert not out.parent.exists()


def test_error_report_result_not_json_is_a_data_error(tmp_path, capsys):
    argv = _error_report_files(tmp_path)
    (tmp_path / "msv.json").write_text('{"model": "msv", "params": ')
    rc = main([*argv, "--heston-result", str(tmp_path / "heston.json"),
               "--msv-result", str(tmp_path / "msv.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "msv.json" in err and "JSONDecodeError" in err


def test_make_synthetic_into_a_missing_directory_is_a_data_error(tmp_path,
                                                                 capsys):
    out = tmp_path / "absent" / "quotes.csv"
    rc = main(["make-synthetic", *PARAM_FLAGS, "--out", str(out),
               "--n-dates", "1"])
    assert rc == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["-0.5", "nan"])
def test_make_synthetic_rejects_a_negative_noise(monkeypatch, tmp_path,
                                                 capsys, noise):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a bad noise")

    monkeypatch.setattr(mssv.quadrature, "integrate", no_quadrature)
    rc = main(["make-synthetic", *PARAM_FLAGS, "--x", "2000", "--n-dates",
               "2", "--noise", noise, "--out", str(tmp_path / "q.csv")])
    assert rc == 2
    assert f"data error: --noise must be >= 0, got {float(noise)}" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--seed", "--state-seed"])
def test_make_synthetic_rejects_a_negative_seed(monkeypatch, tmp_path, capsys,
                                                flag):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a bad seed")

    monkeypatch.setattr(mssv.quadrature, "integrate", no_quadrature)
    rc = main(["make-synthetic", *PARAM_FLAGS, "--x", "2000", flag, "-1",
               "--out", str(tmp_path / "q.csv")])
    assert rc == 2
    assert f"data error: {flag} must be >= 0, got -1" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_make_synthetic_reports_the_quotes_priced_at_or_below_zero(tmp_path,
                                                                   capsys):
    # the grid has 2 x 4 VIX and 2 x 5 SPX quotes a date; at 300% noise
    # some draw a price at or below 0 and are left out
    out = tmp_path / "q.csv"
    rc = main(["make-synthetic", *PARAM_FLAGS, "--x", "2000", "--n-dates",
               "2", "--noise", "3", "--out", str(out)])
    assert rc == 0
    rows = len(out.read_text().splitlines()) - 1
    assert 0 < rows < 36
    assert capsys.readouterr().out.strip() == (
        f"wrote {out} ({rows} quotes, 2 dates; {36 - rows} dropped at "
        "price <= 0)")


@pytest.mark.parametrize("flags, message", [
    (["--x", "2000", "--strikes", "2000", "--tau", "-0.1"],
     "tau must be positive, got -0.1"),
    (["--x", "0", "--strikes", "2000", "--tau", "0.1"],
     "spot must be positive, got 0.0"),
    (["--x", "2000", "--strikes", "1900,-5", "--tau", "0.1"],
     "strike must be positive, got -5.0")])
def test_price_spx_names_a_bad_maturity_spot_or_strike(capsys, flags,
                                                       message):
    rc = main(["price-spx", *PARAM_FLAGS, *STATE_FLAGS, *flags])
    assert rc == 3
    assert capsys.readouterr().err.strip() == f"numerical failure: {message}"


def test_price_spx_labels_the_effective_heston_values():
    # the contour sees (2 theta, sqrt(2) sigma, rho / sqrt(2), 2 z); a bad
    # one-factor input reaches it as given, and the message says which
    # tuple it shows
    with pytest.raises(mssv.DomainError, match=r"got the effective \(r, "
                       r"kappa, theta, sigma, rho, v0\) \[0.02, 3.43, 0.04, "
                       r"0.424, -1.5, 0.04\]"):
        mssv.price_heston_call_batch(2000.0, [2000.0], 0.1, 0.02, 3.43, 0.04,
                                     0.424, -1.5, 0.04)
