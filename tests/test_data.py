"""Quote ingestion, filtering, splitting and error-report tests."""

import datetime as dt

import pytest

from mssv import (HiddenState, OptionQuote, QuadratureConfig, apply_filters,
                  error_report, load_quotes, make_synthetic_quotes,
                  price_quotes, price_spx_strike_batch,
                  price_vix_strike_batch, split_train_test, to_date_slices,
                  write_quotes_csv)
from mssv.data import (BUCKET_LABELS, RejectedRow, bucket_label, option_error,
                       write_error_table_csv)
from mssv.exceptions import DataError


HEADER = "date,underlying,type,strike,expiry,price,volume,underlying_close\n"


def _q(date="2016-01-05", und="VIX", typ="call", strike=20.0,
       expiry="2016-02-05", price=1.5, volume=100.0, level=19.5):
    return OptionQuote(dt.date.fromisoformat(date), und, typ, strike,
                       dt.date.fromisoformat(expiry), price, volume, level)


def test_load_well_formed(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text(HEADER
                 + "2016-01-05,VIX,call,20,2016-02-05,1.5,100,19.5\n"
                 + "2016-01-05,SPX,put,1900,2016-03-05,12.25,300,2000\n"
                 + "2016-01-06,VIX,call,22,2016-02-06,0.9,60,20.1\n")
    quotes, rejects = load_quotes(p)
    assert len(quotes) == 3 and not rejects
    assert quotes[1].tau == pytest.approx(60 / 365)
    assert quotes[1].is_call is False


def test_load_rejects_with_reasons(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text(HEADER
                 + "2016-01-05,VIX,call,20,2015-12-05,1.5,100,19.5\n"  # expiry before trade
                 + "2016-01-05,VIX,call,oops,2016-02-05,1.5,100,19.5\n"  # bad strike
                 + "2016-01-05,VIX,call,20,2016-02-05,1.5,100,19.5\n")
    quotes, rejects = load_quotes(p)
    assert len(quotes) == 1
    assert len(rejects) == 2
    assert all(isinstance(r, RejectedRow) and r.reason for r in rejects)
    assert rejects[0].line == 2


def test_load_rejects_non_finite_and_out_of_range_numbers(tmp_path):
    p = tmp_path / "q.csv"
    good = "2016-01-05,VIX,call,20,2016-02-05,1.5,100,19.5\n"
    bad = ["2016-01-05,VIX,call,nan,2016-02-05,1.5,100,19.5\n",   # strike
           "2016-01-05,VIX,call,-5,2016-02-05,1.5,100,19.5\n",    # strike
           "2016-01-05,VIX,call,inf,2016-02-05,1.5,100,19.5\n",   # strike
           "2016-01-05,VIX,call,20,2016-02-05,nan,100,19.5\n",    # price
           "2016-01-05,VIX,call,20,2016-02-05,1.5,nan,19.5\n",    # volume
           "2016-01-05,VIX,call,20,2016-02-05,1.5,100,nan\n",     # close
           "2016-01-05,VIX,call,20,2016-02-05,1.5,100,0\n",       # close
           "2016-01-05,SPX,put,1900,2016-03-05,12.25,300,-2000\n"]  # close
    p.write_text(HEADER + good + "".join(bad))
    quotes, rejects = load_quotes(p)
    assert len(quotes) == 1 and quotes[0].strike == 20.0
    assert [r.line for r in rejects] == list(range(3, 3 + len(bad)))
    assert all(r.reason for r in rejects)


def test_load_rejects_a_non_positive_spx_strike(tmp_path):
    # a VIX strike of 0 is the forward leg and stays legal
    p = tmp_path / "q.csv"
    p.write_text(HEADER
                 + "2016-01-05,SPX,call,0,2016-03-05,2000,100,2000\n"
                 + "2016-01-05,SPX,put,-5,2016-03-05,1.5,100,2000\n"
                 + "2016-01-05,VIX,call,0,2016-02-05,19.4,100,19.5\n")
    quotes, rejects = load_quotes(p)
    assert [(q.underlying_kind, q.strike) for q in quotes] == [("VIX", 0.0)]
    assert [r.line for r in rejects] == [2, 3]
    assert rejects[0].reason == "SPX strike must be positive, got 0.0"


def test_load_rejects_ragged_rows(tmp_path):
    p = tmp_path / "q.csv"
    good = "2016-01-05,VIX,call,20,2016-02-05,1.5,100,19.5"
    p.write_text(HEADER + good + "\n"
                 + "2016-01-05,VIX,call,20\n"  # short: no expiry onwards
                 + good + ",7\n")  # long: one surplus field
    quotes, rejects = load_quotes(p)
    assert len(quotes) == 1
    assert [r.line for r in rejects] == [3, 4]
    assert rejects[0].reason == "4 fields, header has 8"
    assert rejects[1].reason == "9 fields, header has 8"


def test_load_empty_with_header(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text(HEADER)
    quotes, rejects = load_quotes(p)
    assert quotes == [] and rejects == []


def test_load_missing_columns(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text("date,underlying\n2016-01-05,VIX\n")
    with pytest.raises(DataError):
        load_quotes(p)
    with pytest.raises(DataError):
        load_quotes(tmp_path / "absent.csv")


def test_filters_thresholds():
    quotes = [
        _q(volume=49.0),                      # removed: volume
        _q(price=0.45),                       # removed: price
        _q(expiry="2016-01-08"),              # removed: expires in 3 days
        _q(expiry="2016-01-09"),              # kept: 4 days out
        _q(),                                 # kept
    ]
    kept, stats = apply_filters(quotes)
    assert len(kept) == 2
    assert stats.removed_by_volume == 1
    assert stats.removed_by_price == 1
    assert stats.removed_by_expiry == 1
    # idempotence
    again, stats2 = apply_filters(kept)
    assert again == kept and stats2.kept == len(kept)


def test_split_partition():
    quotes = [_q(date="2017-12-29", expiry="2018-02-01"),
              _q(date="2018-01-02", expiry="2018-02-01"),
              _q(date="2018-06-04", expiry="2018-07-06")]
    train, test = split_train_test(quotes, dt.date(2018, 1, 1))
    assert len(train) == 1 and len(test) == 2
    assert set(train + test) == set(quotes)
    with pytest.warns(UserWarning):
        split_train_test(quotes, dt.date(2025, 1, 1))


def test_bucket_edges():
    assert bucket_label(0.049) == BUCKET_LABELS[0]
    assert bucket_label(0.05) == BUCKET_LABELS[1]
    assert bucket_label(0.19) == BUCKET_LABELS[2]
    assert bucket_label(0.2) == BUCKET_LABELS[3]


def test_error_report_perfect_fit():
    quotes = [_q(), _q(strike=22.0, price=0.7)]
    rep = error_report([1.5, 0.7], quotes)
    assert rep.cell("VIX", "total").mean == 0.0
    assert rep.cell("VIX", "total").count == 2


def test_error_report_single_option_value():
    q = _q(price=0.9, expiry="2016-01-20")  # tau ~ 0.041 -> first bucket
    rep = error_report([1.0], [q])
    cell = rep.cell("VIX", BUCKET_LABELS[0])
    assert cell.mean == pytest.approx(0.1, rel=1e-12)
    assert cell.count == 1
    # counts sum across buckets to the total
    assert rep.cell("VIX", "total").count == 1


def test_error_report_alignment():
    with pytest.raises(ValueError):
        error_report([1.0], [_q(), _q()])


def test_two_model_table_ratio(tmp_path):
    quotes = [_q(price=1.0), _q(strike=22.0, price=2.0)]
    rep_h = error_report([1.2, 2.4], quotes)   # errors .2/1.1, .4/2.1
    rep_o = error_report([1.1, 2.2], quotes)   # exactly half those errors
    out = tmp_path / "table.csv"
    write_error_table_csv(out, rep_h, rep_o)
    text = out.read_text()
    assert "50%" in text
    assert text.splitlines()[0].startswith("underlying,stat")


def test_option_error_metric():
    assert option_error(1.0, 0.9) == pytest.approx(0.1 / 1.0, rel=1e-12)


def test_synthetic_round_trip(tmp_path, params):
    states = [("2016-01-05", HiddenState(y=0.0234, z=0.0194))]
    quad = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    quotes = make_synthetic_quotes(params, states, quad=quad)
    assert all(q.mid_price > 0 for q in quotes)
    path = tmp_path / "synthetic.csv"
    write_quotes_csv(path, quotes)
    loaded, rejects = load_quotes(path)
    assert not rejects and len(loaded) == len(quotes)
    slices = to_date_slices(loaded)
    assert len(slices) == 1
    sl = slices[0]
    assert sl.vix_level == pytest.approx(19.912873322645112, abs=1e-6)
    assert sl.spx_level == 2000.0
    assert len(sl.vix_quotes) + len(sl.spx_quotes) == len(quotes)


def test_synthetic_quotes_reprice_at_their_written_maturities(tmp_path,
                                                             params):
    # SPX_TAUS 0.1 and 0.25 are written as 36 and 91 days: the quotes must
    # be the model's prices at those maturities, to the CSV's 10 digits
    state = HiddenState(y=0.0234, z=0.0194)
    quad = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    path = tmp_path / "synthetic.csv"
    write_quotes_csv(path, make_synthetic_quotes(
        params, [("2016-01-05", state)], quad=quad))
    loaded, rejects = load_quotes(path)
    assert not rejects
    sl, = to_date_slices(loaded)
    assert {round(q.tau * 365) for q in sl.spx_quotes} == {36, 91}
    for quotes, calls, spot in (
            (sl.vix_quotes, lambda ks, tau: price_vix_strike_batch(
                ks, tau, state, params, quad), None),
            (sl.spx_quotes, lambda ks, tau: price_spx_strike_batch(
                sl.spx_level, ks, tau, state, params, quad), sl.spx_level)):
        assert quotes
        for q, d in zip(quotes, price_quotes(quotes, calls, params.r, spot)):
            assert d.total == pytest.approx(q.price, rel=1e-9), q


def test_date_slices_reject_disagreeing_closes():
    quotes = [_q(), _q(strike=22.0, level=19.6)]
    with pytest.raises(DataError):
        to_date_slices(quotes)
    # each underlying keeps its own close
    assert to_date_slices([_q(), _q(und="SPX", strike=1900.0, level=2000.0)])


def test_date_slices_reject_duplicate_quotes():
    with pytest.raises(DataError):
        to_date_slices([_q(), _q(price=1.6)])
    # a put at the same strike is another quote
    assert to_date_slices([_q(), _q(typ="put")])


def test_quote_validation():
    with pytest.raises(ValueError):
        _q(price=-1.0)
    with pytest.raises(ValueError):
        _q(expiry="2016-01-05")  # not after trade date
    with pytest.raises(ValueError):
        _q(und="NDX")


@pytest.mark.parametrize("noise", [-0.01, float("nan")])
def test_synthetic_quotes_reject_a_negative_noise(params, noise):
    states = [("2016-01-05", HiddenState(0.0234, 0.0194))]
    with pytest.raises(ValueError, match="noise must be >= 0"):
        make_synthetic_quotes(params, states, noise=noise)


def test_synthetic_quotes_reject_a_negative_seed(params):
    states = [("2016-01-05", HiddenState(0.0234, 0.0194))]
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        make_synthetic_quotes(params, states, noise=0.01, seed=-1)
