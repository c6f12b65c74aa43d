#include "probe.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::begin_at(std::uint32_t name, std::int64_t start) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start;
  spans_.push_back(span);
  auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::end_at(std::int32_t span, std::int64_t end) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("span closed out of order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(span)].end_ns = end;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::fold() const {
  // Children of each span, as intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.end_ns < 0) throw std::logic_error("span left open");
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    Totals& t = out[names_[s.name]];
    ++t.count;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.total_s += dur;
    t.self_s += dur - static_cast<double>(covered) * 1e-9;
  }
  return out;
}

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
  }
  return 0;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonLine::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

JsonLine& JsonLine::num(std::string_view k, double v) {
  key(k);
  body_ += exact(v);
  return *this;
}

JsonLine& JsonLine::count(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonLine& JsonLine::flag(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::str(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += '"';
  return *this;
}

JsonLine& JsonLine::list(std::string_view k, const std::vector<double>& v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += exact(v[i]);
  }
  body_ += ']';
  return *this;
}

}  // namespace perfbench
