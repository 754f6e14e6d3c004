#include "spans.hpp"

#include <sstream>

namespace perfbench {

Spans::Scope::Scope(Spans& spans, const char* name, const char* layer)
    : spans_(spans), id_(spans.open(name, layer)) {}

Spans::Scope::~Scope() { spans_.close(id_); }

int Spans::open(const char* name, const char* layer) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = current_;
  s.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Spans::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = std::chrono::duration<double>(Clock::now() - origin_).count();
  current_ = s.parent;
}

std::vector<Spans::PassSums> Spans::per_pass() const {
  // Children always follow their parent, so one forward sweep charges
  // each span's duration against its parent's self time.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::vector<PassSums> passes;
  std::vector<int> root_of(spans_.size(), -1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      root_of[i] = static_cast<int>(passes.size());
      passes.push_back(PassSums{s.end - s.start, {}, {}});
    } else {
      root_of[i] = root_of[static_cast<std::size_t>(s.parent)];
    }
    PassSums& p = passes[static_cast<std::size_t>(root_of[i])];
    const double dur = s.end - s.start;
    p.by_name[s.name] += dur;
    p.self_by_layer[s.layer] += dur - child_time[i];
  }
  return passes;
}

std::string Spans::to_json() const {
  std::ostringstream out;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out << ',';
    out << "\n{\"name\":" << json_string(s.name)
        << ",\"layer\":" << json_string(s.layer)
        << ",\"start\":" << json_number(s.start)
        << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent
        << '}';
  }
  out << "\n]}\n";
  return out.str();
}

double median_of(const std::vector<Spans::PassSums>& passes,
                 const std::string& key, bool self_time) {
  std::vector<double> v;
  for (const Spans::PassSums& p : passes) {
    const auto& m = self_time ? p.self_by_layer : p.by_name;
    const auto it = m.find(key);
    v.push_back(it == m.end() ? 0.0 : it->second);
  }
  return median(v);
}

}  // namespace perfbench
