#include "common/metrics.hpp"

namespace fcma::trace {

void Registry::count(const std::string& name, std::int64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  data_.counters[name] += delta;
}

void Registry::gauge_set(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  data_.gauges[name] = value;
}

void Registry::gauge_max(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = data_.gauges.emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void Registry::meta_set(const std::string& name, const std::string& value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  data_.meta[name] = value;
}

void Registry::roofline_set(const std::string& label,
                            const RooflineStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  data_.roofline[label] = stats;
}

std::int64_t Registry::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.counters.find(name);
  return it == data_.counters.end() ? 0 : it->second;
}

double Registry::gauge(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.gauges.find(name);
  return it == data_.gauges.end() ? 0.0 : it->second;
}

std::string Registry::meta(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.meta.find(name);
  return it == data_.meta.end() ? std::string() : it->second;
}

RooflineStats Registry::roofline(const std::string& label) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.roofline.find(label);
  return it == data_.roofline.end() ? RooflineStats{} : it->second;
}

Metrics Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  data_ = Metrics{};
}

Registry& global() {
  static Registry instance;
  return instance;
}

}  // namespace fcma::trace
