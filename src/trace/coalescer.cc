#include "trace/coalescer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpumech
{

void
coalesce(const std::vector<Addr> &addrs, std::uint32_t line_bytes,
         std::vector<Addr> &out)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        panic("coalesce: line size must be a power of two");
    out.clear();
    out.reserve(addrs.size());
    Addr mask = ~static_cast<Addr>(line_bytes - 1);
    // Most warps touch their lines in ascending order: drop adjacent
    // repeats as the lines are masked, and sort only when a line comes
    // out of order.
    bool ordered = true;
    for (Addr a : addrs) {
        const Addr line = a & mask;
        if (!out.empty()) {
            if (line == out.back())
                continue;
            ordered = ordered && line > out.back();
        }
        out.push_back(line);
    }
    if (!ordered) {
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
    }
}

std::vector<Addr>
coalesce(const std::vector<Addr> &addrs, std::uint32_t line_bytes)
{
    std::vector<Addr> lines;
    coalesce(addrs, line_bytes, lines);
    return lines;
}

std::uint32_t
coalescedCount(const std::vector<Addr> &addrs, std::uint32_t line_bytes)
{
    return static_cast<std::uint32_t>(coalesce(addrs, line_bytes).size());
}

} // namespace gpumech
