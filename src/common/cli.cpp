#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace fcma {

namespace {

// Shared checks after a strto* call: something was parsed, nothing trails
// it, no leading blanks, and the value fit its type.
void check_number(const std::string& text, const char* end,
                  const std::string& what, const char* kind) {
  FCMA_CHECK(!text.empty() &&
                 !std::isspace(static_cast<unsigned char>(text.front())) &&
                 end != text.c_str() && *end == '\0',
             what + ": expected " + kind + ", got \"" + text + "\"");
  FCMA_CHECK(errno != ERANGE, what + ": " + kind + " out of range: " + text);
}

}  // namespace

long long parse_int(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  check_number(text, end, what, "an integer");
  return v;
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  check_number(text, end, what, "a number");
  return v;
}

Cli::Cli(std::string program, std::string blurb)
    : program_(std::move(program)), blurb_(std::move(blurb)) {}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  FCMA_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, help, std::nullopt};
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    FCMA_CHECK(arg.rfind("--", 0) == 0, "unexpected positional arg: " + arg);
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    bool have_value = false;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(arg);
    FCMA_CHECK(it != flags_.end(), "unknown flag: --" + arg);
    if (!have_value) {
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else {
        FCMA_CHECK(i + 1 < argc, "missing value for --" + arg);
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  FCMA_CHECK(it != flags_.end(), "flag not registered: " + name);
  return it->second.value.value_or(it->second.default_value);
}

long long Cli::get_int(const std::string& name) const {
  return parse_int(get(name), "--" + name);
}

double Cli::get_double(const std::string& name) const {
  return parse_double(get(name), "--" + name);
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  FCMA_CHECK(v == "false" || v == "0" || v == "no",
             "--" + name + ": expected true/false/1/0/yes/no, got \"" + v +
                 "\"");
  return false;
}

std::string Cli::help() const {
  std::ostringstream os;
  os << program_ << " — " << blurb_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_value << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace fcma
