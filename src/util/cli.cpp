#include "util/cli.hpp"

#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"

namespace chainckpt::util {

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  CHAINCKPT_REQUIRE(!name.empty(), "option name must be non-empty");
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  CHAINCKPT_REQUIRE(!name.empty(), "flag name must be non-empty");
  options_[name] = Option{"false", help, /*is_flag=*/true};
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end())
      throw std::invalid_argument("unknown flag: --" + name);
    if (it->second.is_flag) {
      if (inline_value)
        throw std::invalid_argument("flag --" + name + " takes no value");
      it->second.value = "true";
    } else if (inline_value) {
      it->second.value = *inline_value;
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --" + name);
      it->second.value = argv[++i];
    }
  }
}

std::string CliParser::help_text(const std::string& program_summary) const {
  std::ostringstream os;
  os << program_summary << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value> (default: " << opt.value << ")";
    os << "\n      " << opt.help << '\n';
  }
  return os.str();
}

std::string CliParser::get(const std::string& name) const {
  auto it = options_.find(name);
  CHAINCKPT_REQUIRE(it != options_.end(), "option not registered: " + name);
  return it->second.value;
}

bool CliParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

// std::stoll / std::stod throw invalid_argument or out_of_range naming
// only themselves; either becomes one invalid_argument naming the flag.
std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;  // stays 0 when std::stoll throws
  std::int64_t out = 0;
  try {
    out = std::stoll(v, &pos);
  } catch (const std::logic_error&) {
  }
  if (pos == 0 || pos != v.size())
    throw std::invalid_argument("not an integer for --" + name + ": " + v);
  return out;
}

double CliParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;  // stays 0 when std::stod throws
  double out = 0.0;
  try {
    out = std::stod(v, &pos);
  } catch (const std::logic_error&) {
  }
  if (pos == 0 || pos != v.size())
    throw std::invalid_argument("not a number for --" + name + ": " + v);
  return out;
}

}  // namespace chainckpt::util
