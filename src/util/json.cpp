#include "util/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/strings.hpp"

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

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_ == b.bool_;
    case JsonValue::Type::kInt:
      return a.int_ == b.int_;
    case JsonValue::Type::kDouble:
      return a.double_ == b.double_;
    case JsonValue::Type::kString:
      return a.string_ == b.string_;
    case JsonValue::Type::kArray:
      return a.array_ == b.array_;
    case JsonValue::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
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
  // Keep doubles distinguishable from ints on re-parse ("3" -> "3.0"), so a
  // dump/parse/dump round trip is byte-stable.
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

// ---- parsing ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> run() {
    JsonValue v;
    ME_RETURN_IF_ERROR(parseValue(v, 0));
    skipWs();
    if (pos_ != text_.size()) return fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 96;

  Status fail(std::string_view what) const {
    return invalidArgument(
        strCat("JSON parse error at byte ", pos_, ": ", what));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status expect(char c) {
    if (!consume(c)) return fail(strCat("expected '", std::string(1, c), "'"));
    return Status::ok();
  }

  Status parseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    return Status::ok();
  }

  Status parseString(std::string& out) {
    ME_RETURN_IF_ERROR(expect('"'));
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (sweep files are ASCII in
          // practice; surrogate pairs are rejected rather than mis-merged).
          if (cp >= 0xd800 && cp <= 0xdfff) return fail("surrogate \\u escape");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  Status parseNumber(JsonValue& out) {
    std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    bool isDouble = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      isDouble = true;
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isDouble = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail("bad number");
    if (!isDouble) {
      std::int64_t iv = 0;
      auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), iv);
      if (ec == std::errc() && p == token.data() + token.size()) {
        out = JsonValue(iv);
        return Status::ok();
      }
      // Integer overflow: fall through to double.
    }
    double dv = 0.0;
    auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), dv);
    if (ec != std::errc() || p != token.data() + token.size()) {
      return fail("bad number");
    }
    out = JsonValue(dv);
    return Status::ok();
  }

  Status parseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        ME_RETURN_IF_ERROR(parseLiteral("null"));
        out = JsonValue();
        return Status::ok();
      case 't':
        ME_RETURN_IF_ERROR(parseLiteral("true"));
        out = JsonValue(true);
        return Status::ok();
      case 'f':
        ME_RETURN_IF_ERROR(parseLiteral("false"));
        out = JsonValue(false);
        return Status::ok();
      case '"': {
        std::string s;
        ME_RETURN_IF_ERROR(parseString(s));
        out = JsonValue(std::move(s));
        return Status::ok();
      }
      case '[': {
        ++pos_;
        out = JsonValue::array();
        skipWs();
        if (consume(']')) return Status::ok();
        while (true) {
          JsonValue item;
          ME_RETURN_IF_ERROR(parseValue(item, depth + 1));
          out.push(std::move(item));
          skipWs();
          if (consume(']')) return Status::ok();
          ME_RETURN_IF_ERROR(expect(','));
        }
      }
      case '{': {
        ++pos_;
        out = JsonValue::object();
        skipWs();
        if (consume('}')) return Status::ok();
        while (true) {
          skipWs();
          std::string key;
          ME_RETURN_IF_ERROR(parseString(key));
          skipWs();
          ME_RETURN_IF_ERROR(expect(':'));
          JsonValue item;
          ME_RETURN_IF_ERROR(parseValue(item, depth + 1));
          out.set(key, std::move(item));
          skipWs();
          if (consume('}')) return Status::ok();
          ME_RETURN_IF_ERROR(expect(','));
        }
      }
      default:
        return parseNumber(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace microedge
