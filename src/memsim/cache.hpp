// Two-level software cache simulator.
//
// The paper's single-node analysis (Tables 1, 6, 7) is driven by three event
// counts collected with Intel vTune: memory references, L2 cache misses and
// vectorization intensity.  vTune and the Xeon Phi are gone, so this module
// recreates the counters: instrumented variants of every FCMA kernel route
// their loads and stores through CacheSim, which models an inclusive
// L1 -> L2 hierarchy with 64-byte lines and LRU replacement.
//
// The simulator is deterministic, which makes the event-count tables exactly
// reproducible — something the original hardware counters were not.
#pragma once

#include <cstddef>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/platform.hpp"

namespace fcma::memsim {

/// Geometry of one cache level.
struct CacheConfig {
  std::size_t size_bytes = 0;
  std::size_t associativity = 8;
  std::size_t line_bytes = kCacheLineBytes;

  /// Number of sets implied by the geometry.
  [[nodiscard]] std::size_t sets() const {
    return size_bytes / (associativity * line_bytes);
  }
};

/// Xeon Phi 5110P per-thread view: 32KB L1D, 512KB unified L2 (per core).
CacheConfig phi_l1();
CacheConfig phi_l2();

/// Xeon E5-2670 per-thread view: 32KB L1D, 2.5MB LLC slice per core
/// (the paper notes ~1.28MB LLC per hyperthread; we model the per-core
/// slice since instrumented kernels are single-threaded).
CacheConfig xeon_l1();
CacheConfig xeon_llc();

/// One set-associative LRU cache level.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheConfig& config);

  /// Looks up (and on miss, fills) the line containing `line_addr`.
  /// Returns true on hit.
  bool access(std::uint64_t line_addr);

  /// Drops all cached lines (used between instrumented pipeline stages when
  /// modeling a cold start).
  void flush();

  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  CacheConfig config_;
  std::size_t set_mask_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;  // sets() * associativity, set-major
};

/// Aggregate event counts reported by the simulator.
struct CacheStats {
  std::uint64_t refs = 0;        ///< retired load/store operations
  std::uint64_t l1_misses = 0;   ///< L1D misses
  std::uint64_t l2_misses = 0;   ///< L2 (or LLC) misses
  std::uint64_t bytes = 0;       ///< total bytes requested

  CacheStats& operator+=(const CacheStats& o) {
    refs += o.refs;
    l1_misses += o.l1_misses;
    l2_misses += o.l2_misses;
    bytes += o.bytes;
    return *this;
  }
};

/// Inclusive two-level hierarchy with per-access accounting.
///
/// Lines are indexed by simulated physical address: each line gets the next
/// physical line number the first time it is touched, and keeps it, so
/// memory is laid out in first-touch order and a buffer touched front to
/// back keeps its contiguous set pattern.  Raw virtual addresses would make
/// the miss counts follow ASLR (page numbers, which pick the L2 set bits
/// above the page offset) and the heap's history (a buffer's offset within
/// its page, which moves with every earlier allocation); first-touch
/// numbering makes them a function of the access sequence alone, so a run
/// reproduces them exactly.
class CacheSim {
 public:
  CacheSim(const CacheConfig& l1, const CacheConfig& l2);

  /// Simulates one memory operation of `bytes` starting at `p`.
  /// A single SIMD load/store that spans two lines probes both lines but is
  /// still counted as one memory reference, matching how hardware counts
  /// retired micro-ops.
  void access(const void* p, std::size_t bytes);

  /// Invalidates both levels.  Line numbers stay assigned.
  void flush();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  /// The simulated physical line of virtual line `line`.
  std::uint64_t physical_line(std::uint64_t line);

  CacheLevel l1_;
  CacheLevel l2_;
  CacheStats stats_;
  /// Virtual page -> offset of its lines' numbers in line_ids_.
  std::unordered_map<std::uint64_t, std::size_t> pages_;
  std::vector<std::uint64_t> line_ids_;  ///< ~0 until first touched
  std::uint64_t next_line_ = 0;
  int page_shift_ = 0;  ///< log2(lines per 4 KiB page)
  /// Direct-mapped cache of pages_, so interleaved streams skip the hash.
  struct RecentPage {
    std::uint64_t page = ~0ull;
    std::size_t base = 0;
  };
  std::array<RecentPage, 64> recent_{};
};

}  // namespace fcma::memsim
