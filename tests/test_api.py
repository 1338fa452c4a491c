"""The package's public surface: every re-exported name, every settings
field and the parameters of the functions the benchmark tracer wraps, of
those that lost a setting only the tests set and of the one VIX density
pass are listed here, so adding one is a deliberate change; the
module-level names the tracer wraps and the names the benchmark's
workloads use must stay bound, the imports kept for the tracer alone are
listed, and no module imports a sibling inside a function."""

import ast
import dataclasses
import importlib.util
import inspect
import pathlib

import mssv
import mssv.quadrature
import mssv.vix
from mssv import (CalibrationConfig, HiddenState, McConfig, McEstimate,
                  McModelParams, QuadratureConfig, apply_filters,
                  calibrate_heston, calibrate_msv, error_report,
                  make_synthetic_quotes, ncx2_pdf, price_vix_strike_batch,
                  vix_from_state, vix_limit_from_z)

from .oracles import synthetic_grid

ROOT = pathlib.Path(__file__).resolve().parents[1]

EXPORTS = [
    "CalibrationConfig", "CalibrationResult", "CharFnOverflowError",
    "DataError", "DateSlice", "DomainError", "HiddenState",
    "InfeasibleStateError", "McConfig", "McEstimate", "McModelParams",
    "ModelParams", "MssvError", "Ncx2Params", "NoRootError", "OptionQuote",
    "PriceDecomposition", "QuadratureConfig", "QuadratureError", "Quote",
    "TAU0", "VixWeights", "apply_filters", "bs_call_price", "bs_implied_vol",
    "calibrate_heston", "calibrate_msv", "error_report",
    "heston_star_weights", "load_quotes", "make_synthetic_quotes",
    "mc_price_strikes", "ncx2_pdf", "price_heston_call_batch",
    "price_quotes", "price_spx_strike_batch", "price_vix_heston_strike_batch",
    "price_vix_strike_batch", "split_train_test", "to_date_slices",
    "vix_from_state", "vix_limit_from_z", "vix_normal_implied_vol",
    "vix_normal_price", "vix_weights", "write_quotes_csv",
]


def test_reexported_names():
    names = sorted(n for n, v in vars(mssv).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert len(EXPORTS) == 46
    assert names == EXPORTS


def test_no_module_imports_a_sibling_inside_a_function():
    # a function-level `from .x import` hides an import cycle; the one
    # allowed function-level import is calibration's `multiprocessing`,
    # which a one-core run never loads
    late = []
    for path in sorted((ROOT / "src" / "mssv").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [(path.name, fn.name, node.lineno)
                         for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level]
    assert late == []


def test_only_the_tracer_keeps_an_unused_import():
    # the bindings src/ keeps for perfbench/tracing.py alone, which the
    # benchmark change is to delete; any other `noqa: F401` import fails
    kept = set()
    for path in sorted((ROOT / "src" / "mssv").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                kept |= {(path.stem, a.asname or a.name) for a in node.names}
    assert kept == {("calibration", "minimize"), ("vix", "integrate"),
                    ("cli", "mc_price_spx_strikes"),
                    ("cli", "mc_price_vix_strikes")}


def test_settings_fields():
    fields = {cls: [f.name for f in dataclasses.fields(cls)]
              for cls in (CalibrationConfig, McConfig, QuadratureConfig,
                          McModelParams, McEstimate)}
    assert fields == {
        CalibrationConfig: ["max_iter", "restarts", "seed"],
        McConfig: ["paths", "seed", "steps_per_eps"],
        QuadratureConfig: ["abs_tol", "rel_tol"],
        McModelParams: ["params", "eta", "nu"],
        McEstimate: ["mean", "standard_error"]}
    # nu is derived from w3_eps and eta, never set
    assert list(inspect.signature(McModelParams).parameters) == [
        "params", "eta"]


def test_parameters_of_the_traced_functions():
    # the filters, the weight floor, the ncx2 term budget, calibration's
    # starts and the synthetic quote grid are constants, and the VIX
    # levels compute their own weights
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (ncx2_pdf, apply_filters, error_report,
                         calibrate_heston, calibrate_msv,
                         make_synthetic_quotes, vix_from_state,
                         vix_limit_from_z)}
    assert params == {"ncx2_pdf": ["zeta", "params"],
                      "apply_filters": ["quotes"],
                      "error_report": ["model_prices", "quotes"],
                      "calibrate_heston": ["slices", "cfg", "quad", "r"],
                      "calibrate_msv": ["slices", "cfg", "quad", "r"],
                      "make_synthetic_quotes": ["params", "states",
                                                "spx_level", "noise", "seed",
                                                "quad"],
                      "vix_from_state": ["state", "params"],
                      "vix_limit_from_z": ["z", "params"]}


def test_parameters_of_the_vix_pass():
    # one density pass prices every VIX grid; a new setting there, or in
    # the two-factor grid pricer, is a deliberate change
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (mssv.vix.vix_call_pass, price_vix_strike_batch)}
    assert params == {"vix_call_pass": ["strikes", "tau", "z", "kappa",
                                        "theta", "sigma", "r", "slope",
                                        "intercept", "quad", "c1", "c2",
                                        "jets"],
                      "price_vix_strike_batch": ["strikes", "tau", "state",
                                                 "params", "quad",
                                                 "include_correction"]}


def test_every_name_the_benchmark_workloads_use_resolves():
    # a deleted name that the workloads reach as mssv.<module>.<name> or
    # import from mssv fails here, not in every benchmark run's checks
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used |= {(a.name, None) for a in node.names
                     if a.name.split(".")[0] == "mssv"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "mssv":
            used |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == "mssv":
            used.add((f"mssv.{node.value.attr}", node.attr))
    assert ("mssv.spx", "price_spx") in used
    assert ("mssv.model", "ModelParams") in used
    for module, name in used:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), (module, name)


def _load_tracer():
    """perfbench/tracing.py, which wraps module-level names of `mssv`."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_and_restores_every_name(params,
                                                        state_high_y):
    # a name the tracer wraps that the package drops fails here, not in a
    # traced benchmark run
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        for module, name, original in patched:
            assert getattr(module, name) is not original, (module, name)
        tracer.begin_round()
        mssv.price_spx_strike_batch(2000.0, [1900.0, 2100.0], 0.25,
                                    state_high_y, params)
        mssv.price_vix_strike_batch([18.0, 22.0], 0.1, state_high_y, params)
        tracer.end_round()
        # the tracer reads _sim_exact's paths and step count by position;
        # 0.02 years in steps of at most epsilon / 2 = 0.0048 is 5 steps
        tracer.begin_round()
        mssv.mc_price_strikes(McModelParams(params), state_high_y, 0.02,
                              McConfig(10_000, 1, 2), 2000.0, [2000.0],
                              [20.0])
        tracer.end_round()
    finally:
        tracer.uninstall()
    for module, name, original in patched:
        assert getattr(module, name) is original, (module, name)
    assert mssv.vix.integrate is mssv.quadrature.integrate
    counts = tracer.rounds[0]
    assert counts["spx.contour_passes"] == 1
    assert counts["vix.density_passes"] == 1
    for layer in ("spx", "vix"):
        assert counts[f"{layer}.strikes_per_pass"] == 2
        assert counts[f"{layer}.nodes_per_pass"] > 0
    mc = tracer.rounds[1]
    assert mc["mc.chunks"] == 1
    assert mc["mc.path_steps"] == 10_000 * 5


def test_traced_calibration_equals_the_untraced_one(params):
    # the tracer's wrappers return plain functions: whatever step 2 hands
    # back beside its objective must survive them
    quad = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    with synthetic_grid(VIX_TAUS=(30 / 365,), SPX_TAUS=(0.1,),
                        SPX_MONEYNESS=(0.95, 1.0, 1.05),
                        VIX_MONEYNESS=(0.9, 1.1, 1.3)):
        quotes = mssv.make_synthetic_quotes(
            params, [("2016-03-07", HiddenState(y=0.0234, z=0.0194)),
                     ("2016-03-08", HiddenState(y=0.0110, z=0.0203))],
            quad=quad)
    slices = mssv.to_date_slices(quotes)
    cfg = CalibrationConfig(max_iter=15, restarts=1, seed=2)

    def fits():
        return [fit(slices, cfg, quad, r=params.r)
                for fit in (mssv.calibrate_heston, mssv.calibrate_msv)]

    untraced = fits()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        traced = fits()
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert "w3_eps" in traced[1].params
    assert tracer.rounds[0]["calibration.step2_evals"] > 0
