// Minimal CSV writing/reading used for experiment output and workload traces.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace taps::util {

/// Streams one CSV row at a time; quotes fields when necessary.
class CsvWriter {
 public:
  /// Writes to the given stream (not owned).
  explicit CsvWriter(std::ostream& os) : os_(&os) {}

  void write_row(const std::vector<std::string>& fields);

  /// Convenience: format arbitrary streamable values into a row.
  template <typename... Ts>
  void row(const Ts&... vals) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vals));
    (fields.push_back(field(vals)), ...);
    write_row(fields);
  }

  /// Format one value the way row() does (strings verbatim, numbers via
  /// format_number), for callers that assemble a row with write_row().
  template <typename T>
  static std::string field(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else {
      return format_number(v);
    }
  }

 private:
  static std::string format_number(double v);
  static std::string format_number(long long v);
  static std::string format_number(unsigned long long v);
  static std::string format_number(int v) { return format_number(static_cast<long long>(v)); }
  static std::string format_number(long v) { return format_number(static_cast<long long>(v)); }
  static std::string format_number(unsigned v) {
    return format_number(static_cast<unsigned long long>(v));
  }
  static std::string format_number(std::size_t v) {
    return format_number(static_cast<unsigned long long>(v));
  }

  std::ostream* os_;
};

/// Parse one CSV line into fields (handles quoted fields with embedded
/// commas/quotes). Suitable for the traces this library writes.
[[nodiscard]] std::vector<std::string> parse_csv_line(std::string_view line);

/// Read an entire CSV file; returns rows of fields. Throws std::runtime_error
/// if the file cannot be opened.
[[nodiscard]] std::vector<std::vector<std::string>> read_csv(const std::string& path);

}  // namespace taps::util
