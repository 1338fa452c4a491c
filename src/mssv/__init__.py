"""Pricing and joint calibration of SPX and VIX options under a
two-factor multiscale stochastic volatility model."""

from .exceptions import (CharFnOverflowError, DataError, DomainError,
                         InfeasibleStateError, MssvError, NoRootError,
                         QuadratureError)
from .model import (TAU0, HiddenState, ModelParams, PriceDecomposition,
                    QuadratureConfig, Quote, VixWeights, heston_star_weights,
                    price_quotes, vix_from_state, vix_limit_from_z,
                    vix_weights)
from .spx import price_heston_call_batch, price_spx_strike_batch
from .vix import (Ncx2Params, ncx2_pdf, price_vix_heston_strike_batch,
                  price_vix_strike_batch)
from .impvol import (bs_call_price, bs_implied_vol, vix_normal_implied_vol,
                     vix_normal_price)
from .mc import McConfig, McEstimate, McModelParams, mc_price_strikes
from .calibration import (CalibrationConfig, CalibrationResult, DateSlice,
                          calibrate_heston, calibrate_msv)
from .data import (OptionQuote, apply_filters, error_report, load_quotes,
                   make_synthetic_quotes, split_train_test, to_date_slices,
                   write_quotes_csv)

__version__ = "0.1.0"
