#ifndef MORPHEUS_HARNESS_TABLE_HPP_
#define MORPHEUS_HARNESS_TABLE_HPP_

#include <iosfwd>
#include <string>
#include <vector>

namespace morpheus {

/**
 * A minimal fixed-width ASCII table used by every scenario to print the
 * paper's tables and figure series. Machine consumers read the
 * scenario's RunReport (`--output`), not this text.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Appends one row; short rows are padded with empty cells. */
    void add_row(std::vector<std::string> cells);

    /** Renders the table (with a header underline) to @p os. */
    void print(std::ostream &os) const;

    /** Renders to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Formats @p v with @p precision decimals. */
std::string fmt(double v, int precision = 2);

} // namespace morpheus

#endif // MORPHEUS_HARNESS_TABLE_HPP_
