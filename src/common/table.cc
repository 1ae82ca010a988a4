#include "common/table.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "common/logging.hh"

namespace gpumech
{

Table::Table(std::vector<std::string> header)
    : head(std::move(header))
{
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != head.size()) {
        panic(msg("table row width ", row.size(),
                  " != header width ", head.size()));
    }
    body.push_back(std::move(row));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(head.size());
    for (std::size_t c = 0; c < head.size(); ++c)
        widths[c] = head[c].size();
    for (const auto &row : body) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
            os << (c + 1 == row.size() ? "\n" : "  ");
        }
    };

    emit_row(head);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : body)
        emit_row(row);
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPercent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
fmtShortest(double v)
{
    char buf[32];
    std::to_chars_result r =
        v == std::floor(v) && std::abs(v) < 1e15
            ? std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::fixed)
            : std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

} // namespace gpumech
