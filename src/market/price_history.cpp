#include "src/market/price_history.hpp"

#include <algorithm>
#include <limits>

#include "src/store/codec.hpp"
#include "src/store/ops.hpp"
#include "src/store/store.hpp"

namespace faucets::market {

namespace {

void put_record(store::Encoder& e, const ContractRecord& r) {
  e.put_f64(r.time);
  e.put_u64(r.cluster.value());
  e.put_u32(static_cast<std::uint32_t>(r.procs));
  e.put_f64(r.work);
  e.put_f64(r.price);
}

ContractRecord get_record(store::Decoder& d) {
  ContractRecord r;
  r.time = d.get_f64();
  r.cluster = ClusterId{d.get_u64()};
  r.procs = static_cast<int>(d.get_u32());
  r.work = d.get_f64();
  r.price = d.get_f64();
  return r;
}

}  // namespace

void PriceHistory::record(ContractRecord record) {
  if (store_ != nullptr) {
    store::Encoder e;
    put_record(e, record);
    store_->append(store::op::kPriceRecord, e.bytes());
  }
  push(record);
}

void PriceHistory::save(store::Encoder& out) const {
  out.put_u32(static_cast<std::uint32_t>(records_.size()));
  for (const ContractRecord& r : records_) put_record(out, r);
}

void PriceHistory::load(store::Decoder& in) {
  records_.clear();
  memo_.valid = false;
  const std::uint32_t n = in.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) records_.push_back(get_record(in));
}

bool PriceHistory::apply_op(std::uint16_t type, store::Decoder& in) {
  if (type != store::op::kPriceRecord) return false;
  push(get_record(in));
  return true;
}

void PriceHistory::push(const ContractRecord& record) {
  records_.push_back(record);
  while (records_.size() > capacity_) records_.pop_front();
  while (!records_.empty() && records_.front().time < record.time - window_) {
    records_.pop_front();
  }
  memo_.valid = false;
}

std::optional<double> PriceHistory::average_unit_price(double now) const {
  // With no mutation since the memo's scan at `at <= now`, a scan at `now`
  // averages the same records: none averaged then has left the window
  // (now - window_ <= lo) and none dated in (at, now] exists (now < hi).
  // The same records in the same deque order give the same Welford
  // sequence, so the memo is bit-equal to a fresh scan.
  if (memo_.valid && now >= memo_.at && now - window_ <= memo_.lo &&
      now < memo_.hi) {
    return memo_.value;
  }
  // Records after `now` are excluded, so a query about the past sees only
  // the contracts settled by then.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  OnlineStats stats;
  double lo = kNone;
  double hi = kNone;
  for (const auto& r : records_) {
    if (r.time > now) {
      hi = std::min(hi, r.time);
    } else if (r.time >= now - window_ && r.work > 0.0) {
      stats.add(r.unit_price());
      lo = std::min(lo, r.time);
    }
  }
  std::optional<double> value;
  if (!stats.empty()) value = stats.mean();
  memo_ = AverageMemo{true, now, lo, hi, value};
  return value;
}

std::optional<double> PriceHistory::average_unit_price_for_size(double now,
                                                                int procs_lo,
                                                                int procs_hi) const {
  OnlineStats stats;
  for (const auto& r : records_) {
    if (r.time >= now - window_ && r.time <= now && r.work > 0.0 &&
        r.procs >= procs_lo && r.procs <= procs_hi) {
      stats.add(r.unit_price());
    }
  }
  if (stats.empty()) return std::nullopt;
  return stats.mean();
}

std::optional<std::pair<double, double>> PriceHistory::unit_price_trend(
    double now) const {
  // Ordinary least squares of unit price against (time - now).
  double n = 0.0;
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (const auto& r : records_) {
    if (r.time < now - window_ || r.time > now || r.work <= 0.0) continue;
    const double x = r.time - now;
    const double y = r.unit_price();
    n += 1.0;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  if (n < 2.0) return std::nullopt;
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return std::nullopt;  // all at one instant
  const double slope = (n * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / n;  // value at x = 0, i.e. now
  return std::make_pair(intercept, slope);
}

std::optional<double> PriceHistory::forecast_unit_price(double now,
                                                        double horizon) const {
  const auto trend = unit_price_trend(now);
  if (!trend) return std::nullopt;
  return std::max(0.0, trend->first + trend->second * horizon);
}

Histogram PriceHistory::unit_price_histogram(double now) const {
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (const auto& r : records_) {
    if (r.time < now - window_ || r.time > now || r.work <= 0.0) continue;
    const double p = r.unit_price();
    if (first) {
      lo = hi = p;
      first = false;
    } else {
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  }
  if (first || hi <= lo) hi = lo + 1.0;
  Histogram h{lo, hi, 8};
  for (const auto& r : records_) {
    if (r.time >= now - window_ && r.time <= now && r.work > 0.0) {
      h.add(r.unit_price());
    }
  }
  return h;
}

}  // namespace faucets::market
