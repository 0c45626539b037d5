#include "harness/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace orbit::harness {

std::string MetricsRecord::Key() const {
  std::string key = experiment;
  for (const auto& [name, value] : params) {
    key += '|';
    key += name;
    key += '=';
    key += value;
  }
  key += "|rep=";
  key += std::to_string(rep);
  return key;
}

double MetricsRecord::Metric(std::string_view name) const {
  const JsonValue* v = metrics.FindPath(name);
  if (v == nullptr || !v->is_number()) return std::nan("");
  return v->AsDouble();
}

JsonValue MetricsRecord::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("experiment", experiment);
  out.Set("point", point);
  out.Set("rep", rep);
  // Seeds use the full 64-bit range; store as a decimal string so the
  // value survives JSON's signed-integer ceiling.
  out.Set("seed", std::to_string(seed));
  JsonValue p = JsonValue::MakeObject();
  for (const auto& [name, value] : params) p.Set(name, value);
  out.Set("params", std::move(p));
  if (!error.empty()) out.Set("error", error);
  out.Set("metrics", metrics);
  return out;
}

bool MetricsRecord::FromJson(const JsonValue& json, MetricsRecord* out,
                             std::string* error) {
  if (!json.is_object()) {
    if (error != nullptr) *error = "record is not an object";
    return false;
  }
  const JsonValue* exp = json.Find("experiment");
  const JsonValue* metrics = json.Find("metrics");
  if (exp == nullptr || !exp->is_string() || metrics == nullptr ||
      !metrics->is_object()) {
    if (error != nullptr) *error = "record missing experiment/metrics";
    return false;
  }
  *out = MetricsRecord();
  out->experiment = exp->AsString();
  if (const JsonValue* v = json.Find("point")) out->point = v->AsInt();
  if (const JsonValue* v = json.Find("rep")) out->rep = v->AsInt();
  if (const JsonValue* v = json.Find("seed"); v != nullptr && v->is_string()) {
    const std::string& s = v->AsString();
    std::from_chars(s.data(), s.data() + s.size(), out->seed);
  }
  if (const JsonValue* v = json.Find("error"); v != nullptr && v->is_string())
    out->error = v->AsString();
  if (const JsonValue* v = json.Find("params"); v != nullptr && v->is_object())
    for (const auto& [name, value] : v->object())
      out->params.emplace_back(
          name, value.is_string() ? value.AsString() : value.Dump());
  out->metrics = *metrics;
  return true;
}

std::string DumpJsonl(const std::vector<MetricsRecord>& records) {
  std::string out;
  for (const auto& r : records) {
    r.ToJson().DumpTo(&out);
    out.push_back('\n');
  }
  return out;
}

bool ParseJsonl(std::string_view text, std::vector<MetricsRecord>* out,
                std::string* error) {
  return ParseJsonLines(
      text,
      [out](JsonValue json, std::string* line_error) {
        MetricsRecord record;
        if (!MetricsRecord::FromJson(json, &record, line_error)) return false;
        out->push_back(std::move(record));
        return true;
      },
      error);
}

bool WriteTextFile(const std::string& path, const std::string& contents,
                   std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool closed = std::fclose(f) == 0;
  const bool ok = written == contents.size() && closed;
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

bool WriteJsonlFile(const std::string& path,
                    const std::vector<MetricsRecord>& records,
                    std::string* error) {
  return WriteTextFile(path, DumpJsonl(records), error);
}

bool ReadJsonlFile(const std::string& path, std::vector<MetricsRecord>* out,
                   std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseJsonl(buf.str(), out, error);
}

}  // namespace orbit::harness
