#include "src/obs/metrics.hpp"

#include <stdexcept>

namespace faucets::obs {

namespace {
constexpr const char* type_name(MetricsRegistry::Type type) {
  switch (type) {
    case MetricsRegistry::Type::kCounter: return "counter";
    case MetricsRegistry::Type::kGauge: return "gauge";
    case MetricsRegistry::Type::kHistogram: return "histogram";
  }
  return "?";
}
}  // namespace

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  double edge = start;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(edge);
    edge *= factor;
  }
  return out;
}

std::vector<double> linear_buckets(double start, double width, std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(start + width * static_cast<double>(i));
  }
  return out;
}

MetricsRegistry::Owned* MetricsRegistry::find_entry(const std::string& name,
                                                    Type type) {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  Owned& e = entries_[it->second];
  // A name identifies exactly one instrument. Before this check, registering
  // the same name under a different type silently created a second entry the
  // index could not reach — both aliased into one exported name.
  if (e.type != type) {
    throw std::invalid_argument("metric '" + name + "' is already a " +
                                type_name(e.type) + ", cannot re-register as " +
                                type_name(type));
  }
  return &e;
}

const MetricsRegistry::Owned* MetricsRegistry::find_entry(
    const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

Counter& MetricsRegistry::counter(const std::string& name, std::string help) {
  if (Owned* e = find_entry(name, Type::kCounter)) return *e->counter;
  Owned e;
  e.name = name;
  e.help = std::move(help);
  e.type = Type::kCounter;
  e.counter = std::make_unique<Counter>();
  Counter& ref = *e.counter;
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(e));
  return ref;
}

Gauge& MetricsRegistry::gauge(const std::string& name, std::string help) {
  if (Owned* e = find_entry(name, Type::kGauge)) return *e->gauge;
  Owned e;
  e.name = name;
  e.help = std::move(help);
  e.type = Type::kGauge;
  e.gauge = std::make_unique<Gauge>();
  Gauge& ref = *e.gauge;
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(e));
  return ref;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      std::string help) {
  if (Owned* e = find_entry(name, Type::kHistogram)) return *e->histogram;
  Owned e;
  e.name = name;
  e.help = std::move(help);
  e.type = Type::kHistogram;
  e.histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram& ref = *e.histogram;
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(e));
  return ref;
}

void MetricsRegistry::refresh_from(const MetricsRegistry& src) {
  for (std::size_t i = entries_.size(); i < src.entries_.size(); ++i) {
    const Owned& e = src.entries_[i];
    switch (e.type) {
      case Type::kCounter: counter(e.name, e.help); break;
      case Type::kGauge: gauge(e.name, e.help); break;
      case Type::kHistogram: histogram(e.name, e.histogram->bounds(), e.help); break;
    }
  }
  for (std::size_t i = 0; i < src.entries_.size(); ++i) {
    const Owned& from = src.entries_[i];
    Owned& to = entries_[i];
    switch (from.type) {
      case Type::kCounter: *to.counter = *from.counter; break;
      case Type::kGauge: *to.gauge = *from.gauge; break;
      case Type::kHistogram: *to.histogram = *from.histogram; break;
    }
  }
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const Owned* e = find_entry(name);
  return (e != nullptr && e->type == Type::kCounter) ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const Owned* e = find_entry(name);
  return (e != nullptr && e->type == Type::kGauge) ? e->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const Owned* e = find_entry(name);
  return (e != nullptr && e->type == Type::kHistogram) ? e->histogram.get()
                                                       : nullptr;
}

}  // namespace faucets::obs
