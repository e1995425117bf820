#include "src/sweep/gate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/exporters.hpp"
#include "src/sweep/jsonio.hpp"

namespace faucets::sweep {

namespace {

/// A band below zero passes only exact matches, since check_gate allows
/// max(tolerance * |mean|, abs).
double band(const JsonValue& value, const std::string& what) {
  const double v = value.number();
  if (!(std::isfinite(v) && v >= 0.0)) {
    throw std::invalid_argument(what + " must be finite and >= 0, got " +
                                format_double(v));
  }
  return v;
}

}  // namespace

Baseline Baseline::parse(const std::string& json_text) {
  const JsonValue doc = JsonValue::parse(json_text);
  Baseline out;
  if (const JsonValue* tol = doc.get("default_tolerance")) {
    out.default_tolerance_ = band(*tol, "baseline default_tolerance");
  }
  for (const auto& [point_key, metrics] : doc.at("points").members()) {
    MetricMap& map = out.points_[point_key];
    for (const auto& [metric, entry] : metrics.members()) {
      const std::string where = "baseline '" + point_key + "' / " + metric;
      GateEntry e;
      e.mean = entry.at("mean").number();
      if (const JsonValue* tol = entry.get("tolerance")) {
        e.tolerance = band(*tol, where + " tolerance");
      } else {
        e.tolerance = out.default_tolerance_;
      }
      if (const JsonValue* abs = entry.get("abs")) {
        e.abs_slack = band(*abs, where + " abs");
      }
      map[metric] = e;
    }
  }
  return out;
}

Baseline Baseline::from_aggregate(const std::vector<AggregateRow>& rows,
                                  double default_tolerance) {
  Baseline out;
  out.default_tolerance_ = default_tolerance;
  for (const auto& row : rows) {
    MetricMap& map = out.points_[row.point_key];
    for (const auto& metric : row.metrics) {
      map[metric.name] = GateEntry{metric.mean(), default_tolerance, 1e-9};
    }
  }
  return out;
}

std::string Baseline::to_json() const {
  std::string out = "{\n  \"default_tolerance\": " + format_double(default_tolerance_) +
                    ",\n  \"points\": {";
  bool first_point = true;
  for (const auto& [point_key, metrics] : points_) {
    if (!first_point) out += ',';
    first_point = false;
    out += "\n    \"" + obs::json_escape(point_key) + "\": {";
    bool first_metric = true;
    for (const auto& [metric, entry] : metrics) {
      if (!first_metric) out += ',';
      first_metric = false;
      out += "\n      \"" + obs::json_escape(metric) + "\": {\"mean\": " +
             format_double(entry.mean) +
             ", \"tolerance\": " + format_double(entry.tolerance) +
             ", \"abs\": " + format_double(entry.abs_slack) + "}";
    }
    out += "\n    }";
  }
  out += "\n  }\n}\n";
  return out;
}

std::vector<GateViolation> check_gate(const Baseline& baseline,
                                      const std::vector<AggregateRow>& rows) {
  std::vector<GateViolation> out;
  for (const auto& [point_key, metrics] : baseline.points()) {
    const AggregateRow* row = nullptr;
    for (const auto& candidate : rows) {
      if (candidate.point_key == point_key) {
        row = &candidate;
        break;
      }
    }
    if (row == nullptr) {
      out.push_back({point_key, "", 0.0, 0.0, 0.0,
                     "baseline point '" + point_key + "' missing from sweep results"});
      continue;
    }
    for (const auto& [name, entry] : metrics) {
      const MetricSummary* observed = row->metric(name);
      if (observed == nullptr) {
        out.push_back({point_key, name, entry.mean, 0.0, 0.0,
                       "baseline metric '" + name + "' missing from point '" +
                           point_key + "'"});
        continue;
      }
      const double allowed =
          std::max(entry.tolerance * std::abs(entry.mean), entry.abs_slack);
      const double delta = std::abs(observed->mean() - entry.mean);
      if (delta > allowed) {
        out.push_back({point_key, name, entry.mean, observed->mean(), allowed,
                       point_key + " / " + name + ": observed " +
                           format_double(observed->mean()) + " vs baseline " +
                           format_double(entry.mean) + " (allowed ±" +
                           format_double(allowed) + ")"});
      }
    }
  }
  return out;
}

}  // namespace faucets::sweep
