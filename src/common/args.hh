/**
 * @file
 * Minimal command-line argument parser for the CLI tool and benches.
 *
 * Supports positional arguments plus `--flag`, `--key value`, and
 * `--key=value` options. Deliberately tiny: no subcommand tree, no
 * auto-help generation. A caller that knows which names are flags
 * passes them in, so a flag never swallows the next token.
 */

#ifndef GPUMECH_COMMON_ARGS_HH
#define GPUMECH_COMMON_ARGS_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"

namespace gpumech
{

/**
 * @p text as a uint32 when it is plain decimal digits up to
 * 4294967295. strtoul alone would wrap "-1" and let a uint32 cast
 * truncate anything past 32 bits.
 */
std::optional<std::uint32_t> parseUint32(const std::string &text);

/**
 * @p text as a finite double when strtod consumes all of it. Leading
 * whitespace, "nan", "inf" and overflow such as "1e999" are rejected.
 */
std::optional<double> parseFiniteDouble(const std::string &text);

/** Parsed command line. */
class ArgParser
{
  public:
    /**
     * Parse from main()'s argv (argv[0] is skipped). Names in
     * @p flags take no value: "--flag x" leaves x a positional.
     */
    ArgParser(int argc, const char *const *argv,
              const std::vector<std::string> &flags = {});

    /** Parse from a token list (for tests). */
    explicit ArgParser(const std::vector<std::string> &tokens,
                       const std::vector<std::string> &flags = {});

    /** Number of positional (non-option) arguments. */
    std::size_t numPositional() const { return positionals.size(); }

    /** Positional argument i, or @p fallback when absent. */
    std::string positional(std::size_t i,
                           const std::string &fallback = "") const;

    /** Names of every --name given, in sorted order. */
    std::vector<std::string> optionNames() const;

    /**
     * Ok when every --name given is in @p allowed; else
     * StatusCode::InvalidArgument "unknown option --NAME" for the
     * first other name in sorted order.
     */
    Status checkOptionNames(
        std::initializer_list<std::string_view> allowed) const;

    /** True when --name was given (with or without a value). */
    bool has(const std::string &name) const;

    /** Value of --name, or @p fallback when absent/valueless. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /**
     * Numeric value of --name: plain decimal digits up to 4294967295.
     * Fatal on anything else, including "-1" and values past 32 bits,
     * which would otherwise wrap.
     */
    std::uint32_t getUint(const std::string &name,
                          std::uint32_t fallback) const;

    /**
     * Checked counterpart of getUint: the same digits-only, 32-bit
     * range, and the value must be >= @p min. Anything else returns
     * StatusCode::InvalidArgument naming the flag, so front-ends can
     * reject it before it reaches the engine. Absent/valueless options
     * return @p fallback unchecked.
     */
    Result<std::uint32_t> getCheckedUint(const std::string &name,
                                         std::uint32_t fallback,
                                         std::uint32_t min = 0) const;

    /** getCheckedUint of a count (--jobs, --max-queue): at least 1. */
    Result<std::uint32_t> getPositiveUint(const std::string &name,
                                          std::uint32_t fallback) const
    {
        return getCheckedUint(name, fallback, 1);
    }

    /**
     * Checked floating-point value of --name. Malformed input returns
     * StatusCode::InvalidArgument instead of calling fatal() (a bad
     * numeric option in a served request must produce one error
     * response, never kill the daemon). Non-finite values are rejected
     * too (parseFiniteDouble): none of "nan"/"inf"/"1e999" is a
     * meaningful rate, bandwidth or constraint. Absent/valueless
     * options return @p fallback unchecked.
     */
    Result<double> getDouble(const std::string &name,
                             double fallback) const;

  private:
    void parse(const std::vector<std::string> &tokens,
               const std::vector<std::string> &flags);

    std::vector<std::string> positionals;
    std::map<std::string, std::string> options;
};

} // namespace gpumech

#endif // GPUMECH_COMMON_ARGS_HH
