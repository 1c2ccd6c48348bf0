#include "util/tsv.h"

namespace gfd {

std::vector<std::string_view> SplitFields(std::string_view line, char sep) {
  std::vector<std::string_view> out;
  SplitFields(line, &out, sep);
  return out;
}

void SplitFields(std::string_view line, std::vector<std::string_view>* out,
                 char sep) {
  out->clear();
  size_t start = 0;
  while (start <= line.size()) {
    size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out->push_back(line.substr(start));
      break;
    }
    out->push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

bool SplitKeyValue(std::string_view field, std::string_view* key,
                   std::string_view* value) {
  for (size_t pos = 0; pos < field.size(); ++pos) {
    if (field[pos] == '\\') {
      ++pos;  // skip the escaped character, whatever it is
      continue;
    }
    if (field[pos] == '=') {
      *key = field.substr(0, pos);
      *value = field.substr(pos + 1);
      return true;
    }
  }
  return false;
}

void AppendEscapedField(std::string_view raw, std::string* out) {
  // Plain runs are appended whole; only a metacharacter costs a branch.
  size_t plain = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const char* escaped = nullptr;
    switch (raw[i]) {
      case '\\':
        escaped = "\\\\";
        break;
      case '\t':
        escaped = "\\t";
        break;
      case '\n':
        escaped = "\\n";
        break;
      case '\r':
        escaped = "\\r";
        break;
      case '=':
        escaped = "\\=";
        break;
      default:
        continue;
    }
    out->append(raw.data() + plain, i - plain);
    out->append(escaped, 2);
    plain = i + 1;
  }
  out->append(raw.data() + plain, raw.size() - plain);
}

std::string EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscapedField(raw, &out);
  return out;
}

std::optional<std::string> UnescapeField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
      continue;
    }
    if (++i == field.size()) return std::nullopt;  // dangling backslash
    switch (field[i]) {
      case '\\':
        out += '\\';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case '=':
        out += '=';
        break;
      default:
        return std::nullopt;  // unknown escape
    }
  }
  return out;
}

}  // namespace gfd
