#include "harness/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <ostream>

namespace morpheus {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void
Table::add_row(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
        for (const auto &row : rows_)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << cells[c];
            os << std::string(widths[c] - cells[c].size(), ' ');
        }
        os << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

void
Table::print() const
{
    print(std::cout);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace morpheus
