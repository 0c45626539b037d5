#include "harness/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace orbit::harness {

JsonValue::JsonValue(uint64_t v) {
  if (v <= static_cast<uint64_t>(INT64_MAX)) {
    type_ = Type::kInt;
    int_ = static_cast<int64_t>(v);
  } else {
    type_ = Type::kDouble;
    double_ = static_cast<double>(v);
  }
}

int64_t JsonValue::AsInt(int64_t def) const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble) return static_cast<int64_t>(double_);
  return def;
}

double JsonValue::AsDouble(double def) const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ == Type::kDouble) return double_;
  return def;
}

void JsonValue::Set(std::string_view key, JsonValue value) {
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::FindPath(std::string_view dotted) const {
  const JsonValue* cur = this;
  while (true) {
    const size_t dot = dotted.find('.');
    const JsonValue* next = cur->Find(dotted.substr(0, dot));
    if (next == nullptr || dot == std::string_view::npos) return next;
    cur = next;
    dotted.remove_prefix(dot + 1);
  }
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) {
    // Allow 1 == 1.0 across the int/double divide.
    if (a.is_number() && b.is_number()) return a.AsDouble() == b.AsDouble();
    return false;
  }
  switch (a.type_) {
    case JsonValue::Type::kNull: return true;
    case JsonValue::Type::kBool: return a.bool_ == b.bool_;
    case JsonValue::Type::kInt: return a.int_ == b.int_;
    case JsonValue::Type::kDouble: return a.double_ == b.double_;
    case JsonValue::Type::kString: return a.string_ == b.string_;
    case JsonValue::Type::kArray: return a.array_ == b.array_;
    case JsonValue::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

void AppendJsonNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  ORBIT_CHECK(res.ec == std::errc());
  out->append(buf, res.ptr);
}

namespace {

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void JsonValue::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), int_);
      out->append(buf, res.ptr);
      break;
    }
    case Type::kDouble:
      AppendJsonNumber(double_, out);
      break;
    case Type::kString:
      AppendEscaped(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        v.DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(k, out);
        out->push_back(':');
        v.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

// ---- parser -------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_ != nullptr)
      *error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') return ParseString(out);
    if (ConsumeWord("null")) {
      *out = JsonValue();
      return true;
    }
    if (ConsumeWord("true")) {
      *out = JsonValue(true);
      return true;
    }
    if (ConsumeWord("false")) {
      *out = JsonValue(false);
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    *out = JsonValue::MakeObject();
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      JsonValue key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key))
        return Fail("expected object key");
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object().emplace_back(key.AsString(), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    *out = JsonValue::MakeArray();
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(JsonValue* out) {
    ++pos_;  // '"'
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = JsonValue(std::move(s));
        return true;
      }
      if (c != '\\') {
        s.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': s.push_back('"'); break;
        case '\\': s.push_back('\\'); break;
        case '/': s.push_back('/'); break;
        case 'b': s.push_back('\b'); break;
        case 'f': s.push_back('\f'); break;
        case 'n': s.push_back('\n'); break;
        case 'r': s.push_back('\r'); break;
        case 't': s.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          const auto res = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
          if (res.ec != std::errc() || res.ptr != text_.data() + pos_ + 4)
            return Fail("bad \\u escape");
          pos_ += 4;
          // The writer only emits \u00xx control codes; decode the BMP
          // subset as UTF-8 and reject surrogates.
          if (code >= 0xD800 && code <= 0xDFFF)
            return Fail("surrogate \\u escape unsupported");
          if (code < 0x80) {
            s.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (code >> 6)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            s.push_back(static_cast<char>(0xE0 | (code >> 12)));
            s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return Fail("expected value");
    if (integral) {
      int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        *out = JsonValue(v);
        return true;
      }
      // Fall through to double on int64 overflow.
    }
    double d = 0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
      return Fail("bad number");
    *out = JsonValue(d);
    return true;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text, error).ParseDocument(out);
}

bool ParseJsonLines(
    std::string_view text,
    const std::function<bool(JsonValue, std::string*)>& on_line,
    std::string* error) {
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    JsonValue value;
    std::string line_error;
    if (!ParseJson(line, &value, &line_error) ||
        !on_line(std::move(value), &line_error)) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + line_error;
      return false;
    }
  }
  return true;
}

}  // namespace orbit::harness
