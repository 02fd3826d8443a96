#include "util/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace microedge {

// ---- value mutation ---------------------------------------------------------

JsonValue& JsonValue::push(JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  assert(type_ == Type::kArray && "push on non-array JsonValue");
  array_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(std::string_view key, JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  assert(type_ == Type::kObject && "set on non-object JsonValue");
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(v));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

std::int64_t JsonValue::asInt() const {
  if (type_ != Type::kDouble) return int_;
  if (std::isnan(double_)) return 0;
  if (double_ >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
  if (double_ < -0x1p63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(double_);
}

std::int64_t JsonValue::getInt(std::string_view key,
                               std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isNumber() ? v->asInt() : fallback;
}

double JsonValue::getDouble(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isNumber() ? v->asDouble() : fallback;
}

std::string JsonValue::getString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isString() ? v->asString()
                                       : std::string(fallback);
}

bool JsonValue::getBool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isBool() ? v->asBool() : fallback;
}

// ---- serialization ----------------------------------------------------------

std::string jsonFingerprint(const JsonValue& value) {
  std::uint64_t h = kFnvOffset;
  for (char c : value.dump()) h = fnvFold(h, static_cast<unsigned char>(c));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

std::string jsonFormatDouble(double v) {
  if (std::isnan(v)) return "null";  // JSON has no NaN/Inf
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  std::string s(buf, end);
  // Keep doubles distinguishable from ints ("3" -> "3.0"): a reader of the
  // document sees which storage class the writer held.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

namespace {

void appendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void appendIndent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kInt: {
      char buf[24];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), int_);
      (void)ec;
      out.append(buf, end);
      return;
    }
    case Type::kDouble:
      out += jsonFormatDouble(double_);
      return;
    case Type::kString:
      appendEscaped(out, string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) appendIndent(out, indent, depth + 1);
        array_[i].dumpTo(out, indent, depth + 1);
      }
      if (indent >= 0) appendIndent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) appendIndent(out, indent, depth + 1);
        appendEscaped(out, object_[i].first);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.dumpTo(out, indent, depth + 1);
      }
      if (indent >= 0) appendIndent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

}  // namespace microedge
