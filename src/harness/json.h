// Minimal deterministic JSON value, writer, and parser.
//
// The experiment harness promises that a parallel run's JSON-lines output
// is byte-identical to a serial run's, so serialization must be fully
// deterministic: object keys keep insertion order (no hash-map iteration),
// integers print exactly, and doubles print the shortest round-trip form
// via std::to_chars. The parser accepts everything the writer emits (plus
// ordinary whitespace) so results survive a round trip through
// tools/bench_compare.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orbit::harness {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  // Insertion-ordered: determinism forbids unordered_map iteration.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(int v) : type_(Type::kInt), int_(v) {}
  JsonValue(int64_t v) : type_(Type::kInt), int_(v) {}
  JsonValue(uint64_t v);  // widens to double only when it cannot fit int64
  JsonValue(double v) : type_(Type::kDouble), double_(v) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static JsonValue MakeArray() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue MakeObject() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }

  bool AsBool(bool def = false) const {
    return type_ == Type::kBool ? bool_ : def;
  }
  int64_t AsInt(int64_t def = 0) const;
  double AsDouble(double def = 0) const;
  const std::string& AsString() const { return string_; }

  Array& array() { return array_; }
  const Array& array() const { return array_; }
  Object& object() { return object_; }
  const Object& object() const { return object_; }

  // Object helpers: Set appends or replaces in place (keeps order).
  void Set(std::string_view key, JsonValue value);
  const JsonValue* Find(std::string_view key) const;
  // Dotted-path lookup into nested objects: "read_cached.p99_us".
  const JsonValue* FindPath(std::string_view dotted) const;

  // Array helper.
  void Append(JsonValue value) { array_.push_back(std::move(value)); }

  // Compact single-line serialization (no spaces, keys in stored order).
  std::string Dump() const;
  void DumpTo(std::string* out) const;

  friend bool operator==(const JsonValue&, const JsonValue&);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

// Shortest round-trip decimal form of `v` ("1.5", "0.82", "1e+20"); NaN
// and infinities — which JSON cannot carry — serialize as null.
void AppendJsonNumber(double v, std::string* out);

// Parses one JSON document. Returns false and fills *error (with a byte
// offset) on malformed input; trailing garbage after the document is an
// error too.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Parses JSON-lines text, handing each non-blank line's document to
// `on_line`, which returns false and fills its error to reject it. Returns
// false on the first line that fails to parse or is rejected, with
// "line N: <error>" in *error.
bool ParseJsonLines(
    std::string_view text,
    const std::function<bool(JsonValue, std::string*)>& on_line,
    std::string* error);

}  // namespace orbit::harness
