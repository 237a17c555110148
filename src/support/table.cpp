#include "support/table.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

namespace pruner {

namespace {

/** Terminal columns of a UTF-8 cell: one per code point, so a cell such
 *  as "≥ 2.81x" stays aligned. */
size_t
displayWidth(const std::string& s)
{
    return static_cast<size_t>(std::count_if(s.begin(), s.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
    }));
}

} // namespace

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
Table::fmt(double value, int precision)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(precision);
    oss << value;
    return oss.str();
}

std::string
Table::fmtSpeedup(double value, int precision)
{
    return fmt(value, precision) + "x";
}

std::string
Table::str() const
{
    // Compute column widths over header and all rows.
    size_t ncols = header_.size();
    for (const auto& row : rows_) {
        ncols = std::max(ncols, row.size());
    }
    std::vector<size_t> widths(ncols, 0);
    auto widen = [&](const std::vector<std::string>& row) {
        for (size_t i = 0; i < row.size(); ++i) {
            widths[i] = std::max(widths[i], displayWidth(row[i]));
        }
    };
    widen(header_);
    for (const auto& row : rows_) {
        widen(row);
    }

    std::ostringstream oss;
    if (!title_.empty()) {
        oss << "== " << title_ << " ==\n";
    }
    auto emit = [&](const std::vector<std::string>& row) {
        for (size_t i = 0; i < ncols; ++i) {
            const std::string cell = i < row.size() ? row[i] : "";
            oss << cell
                << std::string(widths[i] - displayWidth(cell) + 2, ' ');
        }
        oss << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        size_t total = 0;
        for (size_t w : widths) {
            total += w + 2;
        }
        oss << std::string(total, '-') << "\n";
    }
    for (const auto& row : rows_) {
        emit(row);
    }
    return oss.str();
}

std::string
Table::csv() const
{
    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string>& row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i) {
                oss << ",";
            }
            oss << row[i];
        }
        oss << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
    }
    for (const auto& row : rows_) {
        emit(row);
    }
    return oss.str();
}

void
Table::print() const
{
    std::cout << str() << std::flush;
}

} // namespace pruner
