// In-memory spans around the benchmark's calls into the simulator's
// layers. Each span has a name, the layer it belongs to, a start and
// end (seconds since the recorder was made) and the span that was open
// when it began. Spans stay in memory and are written out once, at the
// end of the run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// Opens a span for its lifetime.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  Spans() : origin_(Clock::now()) {}

  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

  /// Per root span (one per traced pass): the summed duration of every
  /// span name and the self time of every layer in its subtree. A
  /// span's self time is its duration minus that of its children.
  struct PassSums {
    double wall = 0.0;
    std::map<std::string, double> by_name;
    std::map<std::string, double> self_by_layer;
  };
  [[nodiscard]] std::vector<PassSums> per_pass() const;

  /// {"spans":[{"name":..,"layer":..,"start":..,"end":..,"parent":..}]}
  [[nodiscard]] std::string to_json() const;

 private:
  int open(const char* name, const char* layer);
  void close(int id);

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Median over passes of one entry of PassSums::by_name (or
/// self_by_layer); 0 when no pass recorded it.
[[nodiscard]] double median_of(const std::vector<Spans::PassSums>& passes,
                               const std::string& key, bool self_time);

}  // namespace perfbench
