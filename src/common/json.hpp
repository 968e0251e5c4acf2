// Minimal JSON reader for fcma's own files.
//
// The trace stream's segments and manifest, scoreboard checkpoints and
// shard manifests are JSON, and the container ships no JSON library — so
// this is a small recursive-descent parser of standard JSON (RFC 8259:
// objects, arrays, strings with the usual escapes, numbers,
// true/false/null).  Inputs are parsed strictly (trailing garbage or
// malformed syntax throw fcma::Error with a byte offset), but the API
// favours convenience over schema enforcement — lookups on the wrong kind
// return empty/zero values instead of throwing, so callers check kinds
// (is_number(), is_object(), ...) where a field must be present.  The one
// strict accessor, as_uint(), is for counts and indices that size or
// address memory (checkpoint voxel ranges, shard geometry, stream ids).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fcma::json {

/// One parsed JSON value; a tree of these represents the document.
class Value {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::Number), num_(n) {}
  explicit Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }

  /// Loose accessors: wrong-kind reads return the zero value.
  [[nodiscard]] bool as_bool() const { return kind_ == Kind::Bool && bool_; }
  [[nodiscard]] double as_number() const {
    return kind_ == Kind::Number ? num_ : 0.0;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  /// Strict integer read: throws fcma::Error naming `what` unless this is a
  /// number holding a finite, non-negative integer no larger than `max`.
  [[nodiscard]] std::uint64_t as_uint(std::uint64_t max,
                                      std::string_view what) const;

  /// Object lookup; a shared Null value for missing keys / non-objects.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
  /// Object members in document order (empty for non-objects).
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const {
    return object_;
  }
  /// Array elements (empty for non-arrays).
  [[nodiscard]] const std::vector<Value>& elements() const { return array_; }
  [[nodiscard]] std::size_t size() const {
    return kind_ == Kind::Array ? array_.size() : object_.size();
  }

 private:
  friend class Parser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Parses a complete JSON document (throws fcma::Error on malformed input
/// or trailing non-whitespace).
[[nodiscard]] Value parse(std::string_view text);

/// Reads and parses the file at `path` (throws fcma::Error on I/O or
/// syntax failure).
[[nodiscard]] Value parse_file(const std::string& path);

}  // namespace fcma::json
