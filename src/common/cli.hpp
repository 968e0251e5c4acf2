// Tiny command-line flag parser shared by benches and examples.
//
// Supports `--flag value`, `--flag=value` and boolean `--flag`.  Unknown
// flags are an error so typos in experiment scripts fail loudly, and so are
// malformed values: the typed getters reject `6x`, `abc`, an empty string or
// an out-of-range number instead of reading a prefix or zero.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fcma {

/// Strict number parsing for flag values and environment knobs: the whole
/// of `text` must be one in-range number, else fcma::Error names `what`.
[[nodiscard]] long long parse_int(const std::string& text,
                                  const std::string& what);
[[nodiscard]] double parse_double(const std::string& text,
                                  const std::string& what);

/// Declarative CLI: register flags with defaults, then parse().
class Cli {
 public:
  /// `program` and `blurb` are used by the auto-generated --help text.
  Cli(std::string program, std::string blurb);

  /// Registers a string flag with a default value and help text.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv.  Returns false if --help was requested (help printed).
  /// Throws fcma::Error on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Typed getters; a malformed value throws fcma::Error.  get_bool
  /// accepts true/false, 1/0 and yes/no.
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Renders the --help text.
  [[nodiscard]] std::string help() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  std::string program_;
  std::string blurb_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace fcma
