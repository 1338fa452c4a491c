"""Quote ingestion, filtering, train/test splitting and error reporting.

The canonical CSV schema is one row per option observation:

    date,underlying,type,strike,expiry,price,volume,underlying_close

with ISO dates, underlying in {SPX, VIX} and type in {call, put}.
Malformed rows are collected into a rejects report with reason codes,
never silently dropped.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .calibration import WEIGHT_FLOOR, DateSlice
from .exceptions import DataError
from .model import ModelParams, QuadratureConfig, Quote, vix_from_state
from .spx import price_spx_strike_batch
from .vix import price_vix_strike_batch

REQUIRED_COLUMNS = ("date", "underlying", "type", "strike", "expiry",
                    "price", "volume", "underlying_close")

#: maturity bucket edges (years) of the error tables
BUCKET_EDGES = (0.05, 0.1, 0.2)
BUCKET_LABELS = ("tau<0.05", "0.05<=tau<0.1", "0.1<=tau<0.2", "tau>=0.2")

DAYS_PER_YEAR = 365.0

#: the study's liquidity filters: a quote is kept with volume at least
#: MIN_VOLUME, price at least MIN_PRICE and expiry at least
#: MIN_DAYS_TO_EXPIRY days out (strictly more than 3)
MIN_VOLUME, MIN_PRICE, MIN_DAYS_TO_EXPIRY = 50.0, 0.5, 4


@dataclass(frozen=True)
class OptionQuote:
    """One market observation."""

    trade_date: dt.date
    underlying_kind: str  # "SPX" | "VIX"
    option_type: str      # "call" | "put"
    strike: float
    expiry_date: dt.date
    mid_price: float
    volume: float
    underlying_level: float

    def __post_init__(self):
        if self.underlying_kind not in ("SPX", "VIX"):
            raise ValueError(f"unknown underlying {self.underlying_kind!r}")
        if self.option_type not in ("call", "put"):
            raise ValueError(f"unknown option type {self.option_type!r}")
        nums = (self.strike, self.volume, self.mid_price, self.underlying_level)
        if not all(map(math.isfinite, nums)) or min(nums[:2]) < 0 or min(nums[2:]) <= 0:
            raise ValueError(f"need finite strike, volume >= 0, price, close > 0: {nums}")
        if self.underlying_kind == "SPX" and self.strike <= 0:  # VIX 0: forward
            raise ValueError(f"SPX strike must be positive, got {self.strike}")
        if self.expiry_date <= self.trade_date:
            raise ValueError(
                f"expiry {self.expiry_date} not after trade date {self.trade_date}"
            )

    @property
    def tau(self) -> float:
        return (self.expiry_date - self.trade_date).days / DAYS_PER_YEAR

    @property
    def is_call(self) -> bool:
        return self.option_type == "call"


@dataclass
class RejectedRow:
    line: int
    reason: str
    raw: dict


def load_quotes(path):
    """Parse a quote CSV; returns (quotes, rejects)."""
    quotes, rejects = [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read quote file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return [], []
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"missing required columns: {missing}")
        width = len(reader.fieldnames)
        for i, row in enumerate(reader, start=2):
            # DictReader files a long row's surplus under the key None
            # and pads a short row with None values
            fields = (sum(v is not None for k, v in row.items() if k is not None)
                      + len(row.get(None, ())))
            if fields != width:
                rejects.append(RejectedRow(
                    line=i, reason=f"{fields} fields, header has {width}",
                    raw=dict(row)))
                continue
            try:
                quotes.append(OptionQuote(
                    trade_date=dt.date.fromisoformat(row["date"].strip()),
                    underlying_kind=row["underlying"].strip().upper(),
                    option_type=row["type"].strip().lower(),
                    strike=float(row["strike"]),
                    expiry_date=dt.date.fromisoformat(row["expiry"].strip()),
                    mid_price=float(row["price"]),
                    volume=float(row["volume"]),
                    underlying_level=float(row["underlying_close"]),
                ))
            except (ValueError, KeyError, TypeError) as exc:
                rejects.append(RejectedRow(line=i, reason=str(exc), raw=dict(row)))
    return quotes, rejects


@dataclass
class FilterStats:
    removed_by_volume: int = 0
    removed_by_price: int = 0
    removed_by_expiry: int = 0
    kept: int = 0


def apply_filters(quotes):
    """Apply the liquidity filters; each filter's removal count is reported
    independently (a quote failing two filters counts in both)."""
    stats = FilterStats()
    kept = []
    for q in quotes:
        days = (q.expiry_date - q.trade_date).days
        bad_volume = q.volume < MIN_VOLUME
        bad_price = q.mid_price < MIN_PRICE
        bad_expiry = days < MIN_DAYS_TO_EXPIRY
        stats.removed_by_volume += bad_volume
        stats.removed_by_price += bad_price
        stats.removed_by_expiry += bad_expiry
        if not (bad_volume or bad_price or bad_expiry):
            kept.append(q)
    stats.kept = len(kept)
    return kept, stats


def split_train_test(quotes, split_date: dt.date):
    """Partition by trade date: train strictly before split_date."""
    train = [q for q in quotes if q.trade_date < split_date]
    test = [q for q in quotes if q.trade_date >= split_date]
    if not train or not test:
        warnings.warn(
            f"degenerate split at {split_date}: {len(train)} train / "
            f"{len(test)} test quotes", stacklevel=2)
    return train, test


def to_date_slices(quotes) -> list[DateSlice]:
    """Group quotes by trade date into calibration slices.

    Raises DataError if one date's quotes on an underlying carry
    different closes, or if a quote repeats (same date, underlying,
    type, strike and expiry).
    """
    by_date = defaultdict(lambda: {"vix": [], "spx": [],
                                   "vix_level": None, "spx_level": None})
    seen = set()
    for q in quotes:
        key = (q.trade_date, q.underlying_kind, q.option_type, q.strike,
               q.expiry_date)
        if key in seen:
            raise DataError(f"duplicate quote {q.underlying_kind} {q.option_type}"
                            f" {q.strike:g} {q.expiry_date} on {q.trade_date}")
        seen.add(key)
        slot = by_date[q.trade_date]
        bucket = "vix" if q.underlying_kind == "VIX" else "spx"
        level = slot[f"{bucket}_level"]
        if level is not None and level != q.underlying_level:
            raise DataError(f"{q.underlying_kind} closes {level:g} and "
                            f"{q.underlying_level:g} on {q.trade_date}")
        slot[bucket].append(Quote(q.strike, q.tau, q.is_call, q.mid_price))
        slot[f"{bucket}_level"] = q.underlying_level
    return [DateSlice(date=date.isoformat(), spx_level=slot["spx_level"],
                      vix_level=slot["vix_level"], vix_quotes=tuple(slot["vix"]),
                      spx_quotes=tuple(slot["spx"]))
            for date, slot in sorted(by_date.items())]


# ---------------------------------------------------------------------------
# error reporting
# ---------------------------------------------------------------------------

def option_error(model_price: float, market_price: float) -> float:
    """Per-option weighted error |model - market|/(WEIGHT_FLOOR + market)."""
    return abs(model_price - market_price) / (WEIGHT_FLOOR + market_price)


def bucket_label(tau: float) -> str:
    for edge, label in zip(BUCKET_EDGES, BUCKET_LABELS):
        if tau < edge:
            return label
    return BUCKET_LABELS[-1]


@dataclass
class ErrorCell:
    mean: float
    std: float
    count: int


@dataclass
class ErrorReport:
    """Per (underlying, maturity-bucket) weighted-error statistics."""

    cells: dict = field(default_factory=dict)

    def cell(self, underlying: str, label: str) -> ErrorCell:
        return self.cells.get((underlying, label), ErrorCell(math.nan, math.nan, 0))


def error_report(model_prices, quotes) -> ErrorReport:
    """Bucketed weighted-error table for one model's prices."""
    if len(model_prices) != len(quotes):
        raise ValueError(
            f"alignment mismatch: {len(model_prices)} prices vs "
            f"{len(quotes)} quotes"
        )
    groups = defaultdict(list)
    for p, q in zip(model_prices, quotes):
        e = option_error(p, q.mid_price)
        groups[(q.underlying_kind, bucket_label(q.tau))].append(e)
        groups[(q.underlying_kind, "total")].append(e)
    report = ErrorReport()
    for key, errs in groups.items():
        arr = np.asarray(errs)
        report.cells[key] = ErrorCell(mean=float(arr.mean()),
                                      std=float(arr.std(ddof=0)),
                                      count=len(arr))
    return report


def write_error_table_csv(path, heston: ErrorReport, ours: ErrorReport) -> None:
    """Two-model comparison table in the bucketed layout.

    Columns per bucket: heston mean, ours mean, o/h ratio, then the two
    standard deviations; one row pair per underlying.
    """
    labels = list(BUCKET_LABELS) + ["total"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["underlying", "stat"]
        for lab in labels:
            header += [f"{lab}:heston", f"{lab}:ours", f"{lab}:o/h"]
        writer.writerow(header)
        for und in ("SPX", "VIX"):
            means, stds = ["mean"], ["std"]
            for lab in labels:
                h = heston.cell(und, lab)
                o = ours.cell(und, lab)
                ratio = o.mean / h.mean if h.count and o.count and h.mean else math.nan
                means += [f"{h.mean:.10g}", f"{o.mean:.10g}",
                          f"{100 * ratio:.4g}%" if not math.isnan(ratio) else ""]
                stds += [f"{h.std:.10g}", f"{o.std:.10g}", ""]
            writer.writerow([und] + means)
            writer.writerow([""] + stds)


# ---------------------------------------------------------------------------
# synthetic fixture
# ---------------------------------------------------------------------------

#: the synthetic quote grid: maturities (years), strikes per unit close
VIX_TAUS, SPX_TAUS = (30 / 365, 60 / 365), (0.1, 0.25)
VIX_MONEYNESS = (0.85, 1.0, 1.15, 1.3)
SPX_MONEYNESS = (0.9, 0.95, 1.0, 1.05, 1.1)


def make_synthetic_quotes(params: ModelParams, states, spx_level: float = 2000.0,
                          noise: float = 0.0, seed: int = 0,
                          quad: QuadratureConfig = QuadratureConfig()):
    """Generate a quote set priced from known parameters on the grid of
    VIX_TAUS, SPX_TAUS, VIX_MONEYNESS and SPX_MONEYNESS.

    states is a list of (iso-date, HiddenState).  Prices are the model's
    own (so calibration round trips are exact up to optimizer noise);
    multiplicative Gaussian noise of relative size `noise` is optional.
    All quotes are calls with volume 100.  A maturity is rounded to whole
    days, as the expiry is written, and priced at that rounded maturity;
    one priced at or below 0 is left out.  Noise or seed below 0 is an error.
    """
    if not noise >= 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    quotes = []
    for date_str, state in states:
        date = dt.date.fromisoformat(date_str)
        legs = (("VIX", vix_from_state(state, params), VIX_TAUS, VIX_MONEYNESS,
                 lambda ks, tau: price_vix_strike_batch(ks, tau, state, params,
                                                        quad)),
                ("SPX", spx_level, SPX_TAUS, SPX_MONEYNESS,
                 lambda ks, tau: price_spx_strike_batch(spx_level, ks, tau,
                                                        state, params, quad)))
        for und, level, taus, moneyness, calls in legs:
            for tau in taus:
                days = round(tau * DAYS_PER_YEAR)
                expiry = date + dt.timedelta(days=days)
                strikes = [float(round(m * level)) for m in moneyness]
                for strike, d in zip(strikes,
                                     calls(strikes, days / DAYS_PER_YEAR)):
                    price = d.total * (1.0 + noise * rng.standard_normal()
                                       if noise else 1.0)
                    if price <= 0:
                        continue
                    quotes.append(OptionQuote(date, und, "call", strike, expiry,
                                              price, 100.0, level))
    return quotes


def write_quotes_csv(path, quotes) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for q in quotes:
            writer.writerow([
                q.trade_date.isoformat(), q.underlying_kind, q.option_type,
                f"{q.strike:.10g}", q.expiry_date.isoformat(),
                f"{q.mid_price:.10g}", f"{q.volume:.10g}",
                f"{q.underlying_level:.10g}",
            ])
