// Shared helpers for the host-time benchmark: the clock, order
// statistics, the ordered metric list a run prints, and the tally of
// attempted and failed operations.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v`; 0 for an empty list.
[[nodiscard]] double median(std::vector<double> v);

/// Mean of the middle 80% of `v` (the lowest and highest tenth, rounded
/// down, left out); 0 for an empty list. Pass times on a shared host fall
/// into a fast and a slow group, and a median jumps between the two as
/// their shares change, while this moves in proportion.
[[nodiscard]] double trimmed_mean(std::vector<double> v);

/// The tail of `v`: the highest percentile up to p95 that keeps at least
/// ten samples beyond it, but never below p90 (so with fewer than 100
/// samples it is p90, with fewer than ten beyond it). Higher up, a few
/// host hiccups among thousands of short points decide the value.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Attempted and failed operations of one run, with the first few
/// failure reasons kept for the report.
class Tally {
 public:
  /// Counts one operation; a false `ok` counts it as failed too.
  void check(bool ok, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  void note(const std::string& why);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// `v` as a JSON number with every significant digit.
[[nodiscard]] std::string json_number(double v);

/// `s` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);

/// Reads a whole file; throws std::runtime_error when it cannot.
[[nodiscard]] std::string read_file(const std::string& path);

/// Writes `text` to `path`; throws std::runtime_error when it cannot.
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
