// Minimal TSV tokenization used by the graph loader/saver.
//
// Fields are backslash-escaped so arbitrary strings -- including tabs,
// newlines, '=' and empty values -- survive a save/load round trip:
// EscapeField on the way out, UnescapeField on the way in. Content
// without backslashes is untouched by either, so backslash-free files
// written before escaping existed parse identically. A pre-escaping
// field that does contain a literal backslash is *rejected* with a
// line-numbered error rather than silently reinterpreted -- re-save the
// file through the current writer to migrate it.
#ifndef GFD_UTIL_TSV_H_
#define GFD_UTIL_TSV_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gfd {

/// Splits `line` on `sep` (fields are raw; unescape separately).
std::vector<std::string_view> SplitFields(std::string_view line,
                                          char sep = '\t');
/// SplitFields into `*out` (cleared first), reusing its storage.
void SplitFields(std::string_view line, std::vector<std::string_view>* out,
                 char sep = '\t');

/// Splits "key=value" at the first *unescaped* '=' (one preceded by an
/// even number of backslashes). Returns false if no such '='.
bool SplitKeyValue(std::string_view field, std::string_view* key,
                   std::string_view* value);

/// Escapes the TSV metacharacters of `raw`: backslash, tab, LF, CR and
/// '=' become "\\\\", "\\t", "\\n", "\\r", "\\=". The result never
/// contains a field separator or record terminator.
std::string EscapeField(std::string_view raw);

/// Appends EscapeField(raw) to *out, with no temporary.
void AppendEscapedField(std::string_view raw, std::string* out);

/// Inverse of EscapeField. Returns std::nullopt on a dangling backslash
/// or an unknown escape sequence (the caller reports file:line context).
std::optional<std::string> UnescapeField(std::string_view field);

}  // namespace gfd

#endif  // GFD_UTIL_TSV_H_
