#pragma once

// Minimal deterministic JSON writer for the sweep subsystem's merged results
// and the benches' dumps.
//
// Determinism is the point: the sweep runner's merged BENCH_sweep.json must
// be byte-identical regardless of thread count or shard count, so
// serialization has exactly one spelling per value — objects keep
// insertion order (no hash-map iteration order leaking in), integers and
// doubles are distinct storage classes (a 64-bit seed prints bit-exactly;
// doubles print as the shortest std::to_chars representation, which is
// platform-stable for IEEE-754 binary64), and the writer emits no
// locale-dependent formatting. Nothing in the program reads JSON back.

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace microedge {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;  // null
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(int v) : type_(Type::kInt), int_(v) {}
  JsonValue(std::int64_t v) : type_(Type::kInt), int_(v) {}
  JsonValue(std::uint64_t v)
      : type_(Type::kInt), int_(static_cast<std::int64_t>(v)) {}
  // size_t on LP64 is uint64_t; keep a distinct overload only where it is.
  template <typename T,
            typename = std::enable_if_t<
                std::is_same_v<T, std::size_t> &&
                !std::is_same_v<std::size_t, std::uint64_t>>>
  JsonValue(T v) : type_(Type::kInt), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : type_(Type::kDouble), double_(v) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(std::string_view s) : type_(Type::kString), string_(s) {}

  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool isNull() const { return type_ == Type::kNull; }
  bool isBool() const { return type_ == Type::kBool; }
  bool isInt() const { return type_ == Type::kInt; }
  bool isDouble() const { return type_ == Type::kDouble; }
  bool isNumber() const { return isInt() || isDouble(); }
  bool isString() const { return type_ == Type::kString; }
  bool isArray() const { return type_ == Type::kArray; }
  bool isObject() const { return type_ == Type::kObject; }

  bool asBool() const { return bool_; }
  // A double outside int64's range saturates to INT64_MIN/INT64_MAX and NaN
  // reads as 0 (the bare cast is undefined there), so a range check on the
  // result sees the value's true sign.
  std::int64_t asInt() const;
  std::uint64_t asUint() const { return static_cast<std::uint64_t>(asInt()); }
  double asDouble() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& asString() const { return string_; }

  Array& items() { return array_; }
  const Array& items() const { return array_; }
  std::size_t size() const {
    return type_ == Type::kObject ? object_.size() : array_.size();
  }

  // Array append. Converts a null value into an array on first push.
  JsonValue& push(JsonValue v);

  // Object set: replaces in place if `key` exists (keeping its position),
  // appends otherwise. Converts a null value into an object on first set.
  JsonValue& set(std::string_view key, JsonValue v);

  // nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Lookup helpers with defaults, for grid/config reading.
  std::int64_t getInt(std::string_view key, std::int64_t fallback) const;
  double getDouble(std::string_view key, double fallback) const;
  std::string getString(std::string_view key, std::string_view fallback) const;
  bool getBool(std::string_view key, bool fallback) const;

  // Compact (indent < 0) or pretty (2-space style indent) serialization.
  // Deterministic: same value -> same bytes, always.
  std::string dump(int indent = -1) const;

 private:
  void dumpTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Shortest round-trip decimal form of `v` (the writer's double format),
// exposed so other emitters can match BENCH_sweep.json's number spelling.
std::string jsonFormatDouble(double v);

// FNV-1a 64, the repo's one hash: start at kFnvOffset and fold each byte or
// word in turn.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t fnvFold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

// FNV-1a over `value`'s compact dump, as 16 lowercase hex digits: the name a
// sweep grid or a scenario spec carries into dumps.
std::string jsonFingerprint(const JsonValue& value);

}  // namespace microedge
