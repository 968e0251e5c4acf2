#include "memsim/cache.hpp"

#include <bit>

#include "common/error.hpp"

namespace fcma::memsim {

CacheConfig phi_l1() { return {.size_bytes = 32 * 1024, .associativity = 8}; }
CacheConfig phi_l2() { return {.size_bytes = 512 * 1024, .associativity = 8}; }
CacheConfig xeon_l1() { return {.size_bytes = 32 * 1024, .associativity = 8}; }
CacheConfig xeon_llc() {
  return {.size_bytes = 2560 * 1024, .associativity = 20};
}

CacheLevel::CacheLevel(const CacheConfig& config) : config_(config) {
  FCMA_CHECK(config.size_bytes % (config.associativity * config.line_bytes) ==
                 0,
             "cache size must be a multiple of way size");
  const std::size_t sets = config.sets();
  FCMA_CHECK(std::has_single_bit(sets), "set count must be a power of two");
  set_mask_ = sets - 1;
  ways_.resize(sets * config.associativity);
}

bool CacheLevel::access(std::uint64_t line_addr) {
  ++tick_;
  const std::size_t set = static_cast<std::size_t>(line_addr) & set_mask_;
  Way* base = &ways_[set * config_.associativity];
  Way* victim = base;
  for (std::size_t w = 0; w < config_.associativity; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == line_addr) {
      way.last_use = tick_;
      return true;
    }
    if (!way.valid) {
      victim = &way;  // prefer an empty way over LRU eviction
    } else if (victim->valid && way.last_use < victim->last_use) {
      victim = &way;
    }
  }
  victim->valid = true;
  victim->tag = line_addr;
  victim->last_use = tick_;
  return false;
}

void CacheLevel::flush() {
  for (auto& way : ways_) way.valid = false;
}

CacheSim::CacheSim(const CacheConfig& l1, const CacheConfig& l2)
    : l1_(l1), l2_(l2) {
  FCMA_CHECK(l1.line_bytes == l2.line_bytes &&
                 std::has_single_bit(l1.line_bytes) && l1.line_bytes <= 4096,
             "both levels need one power-of-two line size of at most 4096");
  page_shift_ = std::countr_zero(4096 / l1.line_bytes);
}

std::uint64_t CacheSim::physical_line(std::uint64_t line) {
  // Pages are bookkeeping only: a page's line numbers are allocated
  // together, so most lookups hit the recent-page cache.
  constexpr std::uint64_t kUntouched = ~0ull;
  const std::uint64_t page = line >> page_shift_;
  // Fibonacci hashing, so streams a power-of-two stride apart spread.
  static_assert(std::tuple_size_v<decltype(recent_)> == 64, "6-bit index");
  RecentPage& recent = recent_[(page * 0x9E3779B97F4A7C15ull) >> 58];
  if (recent.page != page) {
    const auto [it, fresh] = pages_.try_emplace(page, line_ids_.size());
    if (fresh) {
      line_ids_.resize(line_ids_.size() + (1ull << page_shift_), kUntouched);
    }
    recent = RecentPage{page, it->second};
  }
  std::uint64_t& id =
      line_ids_[recent.base + (line & ((1ull << page_shift_) - 1))];
  if (id == kUntouched) id = next_line_++;
  return id;
}

void CacheSim::access(const void* p, std::size_t bytes) {
  const auto addr = reinterpret_cast<std::uint64_t>(p);
  const std::size_t line = l1_.config().line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
  ++stats_.refs;
  stats_.bytes += bytes;
  for (std::uint64_t l = first; l <= last; ++l) {
    const std::uint64_t phys = physical_line(l);
    if (!l1_.access(phys)) {
      ++stats_.l1_misses;
      if (!l2_.access(phys)) ++stats_.l2_misses;
    }
  }
}

void CacheSim::flush() {
  l1_.flush();
  l2_.flush();
}

}  // namespace fcma::memsim
