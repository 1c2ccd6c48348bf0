#include "util/interner.h"

#include <functional>

namespace gfd {

size_t StringInterner::Slot(std::string_view s) const {
  const size_t mask = slots_.size() - 1;
  size_t i = std::hash<std::string_view>{}(s) & mask;
  while (slots_[i] != kEmpty && strings_[slots_[i]] != s) i = (i + 1) & mask;
  return i;
}

uint32_t StringInterner::Intern(std::string_view s) {
  if (2 * (strings_.size() + 1) > slots_.size()) {
    // Grow to keep the load at most a half, re-placing every id.
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kEmpty);
    for (uint32_t id = 0; id < strings_.size(); ++id) {
      slots_[Slot(strings_[id])] = id;
    }
  }
  const size_t i = Slot(s);
  if (slots_[i] == kEmpty) {
    slots_[i] = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
  }
  return slots_[i];
}

std::optional<uint32_t> StringInterner::Find(std::string_view s) const {
  if (slots_.empty()) return std::nullopt;
  const uint32_t id = slots_[Slot(s)];
  if (id == kEmpty) return std::nullopt;
  return id;
}

}  // namespace gfd
