/**
 * @file
 * ASCII table renderer and the number formats the text outputs
 * share.
 */

#ifndef GPUMECH_COMMON_TABLE_HH
#define GPUMECH_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace gpumech
{

/**
 * Column-aligned ASCII table.
 *
 * Usage:
 * @code
 *   Table t({"kernel", "error"});
 *   t.addRow({"srad", "13.2%"});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    /** Construct with the header row. */
    explicit Table(std::vector<std::string> header);

    /** Append one data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Render with padded columns and a header rule. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return body.size(); }

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> body;
};

/** Format a double with the given precision. */
std::string fmtDouble(double v, int precision = 3);

/** Format a fraction as a percentage string, e.g. 0.132 -> "13.2%". */
std::string fmtPercent(double fraction, int precision = 1);

/**
 * Shortest decimal form that reads back as @p v (std::to_chars), in
 * fixed notation for whole numbers below 1e15, so 1000000 prints as
 * 1000000 rather than 1e+06: 96.4 -> "96.4", 96 -> "96".
 */
std::string fmtShortest(double v);

} // namespace gpumech

#endif // GPUMECH_COMMON_TABLE_HH
