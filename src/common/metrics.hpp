// Thread-safe metrics registry: counters, gauges, run metadata, rooflines.
//
// This is the in-memory half of the fcma::trace layer (trace.hpp).  Spans
// are not kept here: every span occurrence is an event in the
// fcma.tlstream.v1 stream (tlstream.hpp), and per-label span statistics are
// folded from the stream when a view is rendered.  A Registry holds the
// values that are not events:
//
//   counters  — monotonically adjusted signed integers (messages, bytes,
//               tasks executed, SVM iterations, ...);
//   gauges    — last-or-max point-in-time values (queue depth, ...);
//   meta      — run-metadata strings (ISA in use, run id, ...);
//   roofline  — per-kernel roofline attributions (modeled time, arithmetic
//               intensity, % of the machine roofline) attached by the
//               memsim-instrumented paths (see archsim/roofline.hpp).
//
// All mutation goes through one mutex; these families record at stage
// granularity.  In-process reads (counter(), gauge(), ...) see every value
// at once; the stream's finalize copies a snapshot() into its stream.done
// manifest, from which the fcma.trace.v2 view renders them.  The
// process-wide instance is trace::global(); tests construct their own.
//
// Read semantics: counter(), gauge(), meta() and roofline() on a name that
// was never recorded return a zero value (empty string for meta) and do NOT
// insert the name — lookups never grow the registry or its snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace fcma::trace {

/// Roofline attribution of one kernel/stage (archsim::roofline_point()).
struct RooflineStats {
  double modeled_s = 0.0;          ///< modeled execution time on the machine
  double gflops = 0.0;             ///< achieved GFLOPS under the model
  double ai_flops_per_byte = 0.0;  ///< FLOPs per byte moved from memory
  double pct_roofline = 0.0;       ///< achieved / roof(AI), in percent
  std::string bound;               ///< "compute" or "memory"
};

/// Every non-span value of one run, by name.
struct Metrics {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::string> meta;
  std::map<std::string, RooflineStats> roofline;
};

/// Name-keyed holder of counters, gauges, metadata and rooflines.
class Registry {
 public:
  /// Adjusts the counter `name` by `delta` (creating it at zero).
  void count(const std::string& name, std::int64_t delta = 1);

  /// Sets the gauge `name` to `value`.
  void gauge_set(const std::string& name, double value);

  /// Raises the gauge `name` to `value` if larger (high-water mark).
  void gauge_max(const std::string& name, double value);

  /// Sets the run-metadata string `name` (ISA in use, host name, ...).
  void meta_set(const std::string& name, const std::string& value);

  /// Attaches the roofline attribution for `label` (last write wins).
  void roofline_set(const std::string& label, const RooflineStats& stats);

  // Reads return zero values for unknown names and never insert (see the
  // header comment).
  [[nodiscard]] std::int64_t counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] std::string meta(const std::string& name) const;
  [[nodiscard]] RooflineStats roofline(const std::string& label) const;

  /// A copy of every recorded value.
  [[nodiscard]] Metrics snapshot() const;

  /// Drops every recorded value (names included).
  void reset();

 private:
  mutable std::mutex mutex_;
  Metrics data_;
};

/// The process-wide registry every production counter/gauge reports to.
[[nodiscard]] Registry& global();

}  // namespace fcma::trace
