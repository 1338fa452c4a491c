"""The package's public surface: every re-exported name and calibration
setting is listed here, so adding one is a deliberate change."""

import dataclasses
import inspect

import mssv
from mssv import CalibrationConfig

EXPORTS = [
    "CalibrationConfig", "CalibrationResult", "CharFnOverflowError",
    "DataError", "DateSlice", "DomainError", "FilterRules", "HiddenState",
    "InfeasibleStateError", "McConfig", "McEstimate", "McModelParams",
    "ModelParams", "MssvError", "Ncx2Params", "NoRootError", "OptionQuote",
    "PriceDecomposition", "QuadratureConfig", "QuadratureError", "Quote",
    "SpxOptionSpec", "TAU0", "VixOptionSpec", "VixWeights", "apply_filters",
    "bs_call_price", "bs_implied_vol", "calibrate_heston", "calibrate_msv",
    "error_report", "heston_star_weights", "inner_state_fit", "load_quotes",
    "make_synthetic_quotes", "mc_price_spx_strikes", "mc_price_vix_strikes",
    "ncx2_pdf", "price_heston_call_batch", "price_quotes", "price_spx",
    "price_spx_strike_batch", "price_vix", "price_vix_heston_strike_batch",
    "price_vix_strike_batch", "simulate_terminal",
    "simulate_variance_terminal", "split_train_test", "to_date_slices",
    "vix_from_state", "vix_limit_from_z", "vix_normal_implied_vol",
    "vix_normal_price", "vix_weights", "weighted_sse", "write_quotes_csv",
    "y_max_for_vix", "z_from_vix_given_y", "z_from_vix_heston",
]


def test_reexported_names():
    names = sorted(n for n, v in vars(mssv).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert len(EXPORTS) == 59
    assert names == EXPORTS


def test_calibration_settings():
    assert [f.name for f in dataclasses.fields(CalibrationConfig)] == \
        ["max_iter", "restarts", "seed"]
