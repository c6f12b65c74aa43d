// Measurement helpers shared by the benchmark's operations: a span recorder
// with self-time folding, process memory probes, a flat JSON writer and a
// digest for byte-identity checks. Everything here observes the emulator
// from outside -- it wraps calls into the libraries, it never reaches in.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans in memory: name, start, end and the span that was open when it
/// began (its parent). Single-threaded by design -- traced runs advance
/// sectors on one thread so nesting is a stack.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< summed span durations
    double self_s = 0.0;   ///< total minus the time child spans cover
  };

  std::uint32_t intern(std::string_view name);

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t begin(std::uint32_t name) { return begin_at(name, now_ns()); }
  void end(std::int32_t span) { end_at(span, now_ns()); }

  /// Explicit-time variants, for tests of the fold arithmetic.
  std::int32_t begin_at(std::uint32_t name, std::int64_t start_ns);
  void end_at(std::int32_t span, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals. A span's self time is its duration minus the union of
  /// its children's intervals clipped to it, so overlapping or straggling
  /// children are never subtracted twice.
  [[nodiscard]] std::map<std::string, Totals> fold() const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint32_t name)
      : rec_(rec), span_(rec != nullptr ? rec->begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t span_;
};

/// Resident set size now, from /proc/self/statm (bytes).
[[nodiscard]] std::uint64_t rss_bytes();
/// Peak resident set size of the process so far, VmHWM (bytes).
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// 64-bit FNV-1a over a canonical text rendering.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text,
                                  std::uint64_t h = 1469598103934665603ull);

/// Round-trip ("%.17g") rendering of a double.
[[nodiscard]] std::string exact(double v);

/// One flat JSON object, written in insertion order.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double v);
  JsonLine& count(std::string_view key, std::uint64_t v);
  JsonLine& flag(std::string_view key, bool v);
  JsonLine& str(std::string_view key, std::string_view v);
  JsonLine& list(std::string_view key, const std::vector<double>& v);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

}  // namespace perfbench
