// Minimal aligned-table printer for benchmark output.
//
// The figure-reproduction benches print the same series the paper plots; this
// keeps their output readable and machine-greppable (every data row starts
// with the table name so EXPERIMENTS.md can quote it).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace tcio {

/// Collects rows of strings and prints them with aligned columns.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the header row (printed once, above a separator).
  void header(std::vector<std::string> cells);

  /// Appends a data row. Missing cells print empty.
  void row(std::vector<std::string> cells);

  /// Convenience: formats each double with the given precision.
  void rowf(const std::vector<double>& values, int precision = 2);

  /// Renders the table to `os`.
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a byte count as a human-readable string ("768 MiB", "48 GiB").
std::string formatBytes(std::int64_t bytes);

/// Formats a double with fixed precision.
std::string formatDouble(double v, int precision = 2);

}  // namespace tcio
