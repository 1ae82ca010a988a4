#include "common/args.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace gpumech
{

std::optional<std::uint32_t>
parseUint32(const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno != 0 || v > 0xffffffffull)
        return std::nullopt;
    return static_cast<std::uint32_t>(v);
}

std::optional<double>
parseFiniteDouble(const std::string &text)
{
    // strtod skips leading whitespace; a shell-quoted "--bw ' 8'" is
    // still malformed here, matching parseUint32.
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

ArgParser::ArgParser(int argc, const char *const *argv,
                     const std::vector<std::string> &flags)
{
    std::vector<std::string> tokens;
    for (int i = 1; i < argc; ++i)
        tokens.emplace_back(argv[i]);
    parse(tokens, flags);
}

ArgParser::ArgParser(const std::vector<std::string> &tokens,
                     const std::vector<std::string> &flags)
{
    parse(tokens, flags);
}

void
ArgParser::parse(const std::vector<std::string> &tokens,
                 const std::vector<std::string> &flags)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (tok.rfind("--", 0) != 0) {
            positionals.push_back(tok);
            continue;
        }
        std::string body = tok.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            options[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // "--key value" when the next token is not an option and the
        // name is not a known flag; otherwise a bare flag.
        const bool flag =
            std::find(flags.begin(), flags.end(), body) != flags.end();
        if (!flag && i + 1 < tokens.size() &&
            tokens[i + 1].rfind("--", 0) != 0) {
            options[body] = tokens[i + 1];
            ++i;
        } else {
            options[body] = "";
        }
    }
}

std::string
ArgParser::positional(std::size_t i, const std::string &fallback) const
{
    return i < positionals.size() ? positionals[i] : fallback;
}

std::vector<std::string>
ArgParser::optionNames() const
{
    std::vector<std::string> names;
    names.reserve(options.size());
    for (const auto &[name, value] : options)
        names.push_back(name);
    return names;
}

Status
ArgParser::checkOptionNames(
    std::initializer_list<std::string_view> allowed) const
{
    for (const auto &[name, value] : options) {
        if (std::find(allowed.begin(), allowed.end(), name) ==
            allowed.end()) {
            return Status(StatusCode::InvalidArgument,
                          msg("unknown option --", name));
        }
    }
    return Status();
}

bool
ArgParser::has(const std::string &name) const
{
    return options.find(name) != options.end();
}

std::string
ArgParser::get(const std::string &name, const std::string &fallback)
    const
{
    auto it = options.find(name);
    if (it == options.end() || it->second.empty())
        return fallback;
    return it->second;
}

std::uint32_t
ArgParser::getUint(const std::string &name, std::uint32_t fallback) const
{
    Result<std::uint32_t> v = getCheckedUint(name, fallback);
    if (!v.ok())
        fatal(v.status().message());
    return v.value();
}

Result<std::uint32_t>
ArgParser::getCheckedUint(const std::string &name, std::uint32_t fallback,
                          std::uint32_t min) const
{
    auto it = options.find(name);
    if (it == options.end() || it->second.empty())
        return fallback;
    std::optional<std::uint32_t> v = parseUint32(it->second);
    if (v && *v >= min)
        return *v;
    return Status(StatusCode::InvalidArgument,
                  msg("--", name, " expects ",
                      min == 0 ? "an integer from 0 to "
                               : "a positive integer up to ",
                      "4294967295, got '", it->second, "'"));
}

Result<double>
ArgParser::getDouble(const std::string &name, double fallback) const
{
    auto it = options.find(name);
    if (it == options.end() || it->second.empty())
        return fallback;
    std::optional<double> v = parseFiniteDouble(it->second);
    if (!v) {
        return Status(StatusCode::InvalidArgument,
                      msg("--", name, " expects a finite number, got '",
                          it->second, "'"));
    }
    return *v;
}

} // namespace gpumech
