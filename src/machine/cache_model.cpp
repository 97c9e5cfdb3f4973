#include "machine/cache_model.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace sparta {

SetAssocCache::SetAssocCache(std::size_t capacity_bytes, std::size_t line_bytes, int ways)
    : line_bytes_(line_bytes), ways_(ways) {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument{"cache: line size must be a power of two"};
  }
  if (ways <= 0) throw std::invalid_argument{"cache: ways must be positive"};
  const std::size_t lines = std::max<std::size_t>(capacity_bytes / line_bytes, ways_);
  nsets_ = std::bit_floor(lines / static_cast<std::size_t>(ways_));
  nsets_ = std::max<std::size_t>(nsets_, 1);
  lines_.assign(nsets_ * static_cast<std::size_t>(ways_), Line{});
}

bool SetAssocCache::access(std::uint64_t addr) {
  const std::uint64_t tag = addr / line_bytes_;
  if (tag == last_tag_) {
    ++hits_;
    return true;
  }
  last_tag_ = tag;
  const std::size_t set = static_cast<std::size_t>(tag) & (nsets_ - 1);
  Line* base = lines_.data() + set * static_cast<std::size_t>(ways_);
  ++tick_;
  Line* victim = base;
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) {
      base[w].last_use = tick_;
      ++hits_;
      return true;
    }
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  victim->tag = tag;
  victim->last_use = tick_;
  ++misses_;
  return false;
}

void SetAssocCache::clear() {
  std::fill(lines_.begin(), lines_.end(), Line{});
  tick_ = 0;
  last_tag_ = ~std::uint64_t{0};
}

}  // namespace sparta
