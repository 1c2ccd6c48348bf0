// String interning: bidirectional mapping between strings and dense ids.
#ifndef GFD_UTIL_INTERNER_H_
#define GFD_UTIL_INTERNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gfd {

/// Maps strings to dense uint32 ids and back. Not thread safe; graphs are
/// built single-threaded and read-only afterwards.
class StringInterner {
 public:
  StringInterner() = default;

  /// Interns `s`, returning its id (existing or freshly assigned).
  uint32_t Intern(std::string_view s);

  /// Returns the id of `s` if already interned. Looks `s` up as it is,
  /// with no copy.
  std::optional<uint32_t> Find(std::string_view s) const;

  /// Returns the string for id `id`. Precondition: id < size().
  const std::string& Get(uint32_t id) const { return strings_[id]; }

  /// Number of distinct interned strings.
  size_t size() const { return strings_.size(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // The slot holding `s`'s id, or the empty slot where it would go.
  size_t Slot(std::string_view s) const;

  std::vector<std::string> strings_;  // by id
  // An open-addressing table of ids, keyed by their strings' hashes: a
  // power of two of at least 2 size() slots (kEmpty when free), linear
  // probing. No string is stored twice.
  std::vector<uint32_t> slots_;
};

}  // namespace gfd

#endif  // GFD_UTIL_INTERNER_H_
