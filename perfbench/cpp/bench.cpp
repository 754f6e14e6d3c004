#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Index of the smallest sample at or above percentile `p`.
  const auto at = [n](double p) {
    const auto i = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<std::size_t>(i, 1, n) - 1;
  };
  constexpr std::size_t kBeyond = 10;
  std::size_t i = at(95.0);
  if (n > kBeyond) i = std::min(i, n - kBeyond - 1);
  i = std::max(i, at(90.0));
  t.value = v[i];
  t.beyond = n - 1 - i;
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

void Tally::note(const std::string& why) {
  constexpr std::size_t kKeep = 8;
  if (reasons_.size() < kKeep) reasons_.push_back(why);
}

void Tally::check(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  note(why);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text)) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
