// Exact lower nearest-rank percentile: the one order-statistic kernel behind
// ColumnStore's p50/p90 and the scenarios' QoeSummary p90.
//
// The answer is element floor(q*(n-1)) of the sorted sample, with no
// interpolation. Up to kDirectSelectMax values it is one nth_element over
// all of them. Above that it brackets the rank from a strided sample first:
//
//   1. Copy every (n/s)-th value into a sample of s ~ n^(2/3) values (at most
//      kRankSampleMax) and select two sample values `lo` <= `hi` that sit
//      about 3 sigma either side of the rank's expected position in it.
//   2. One branchless pass counts the values below `lo`, at or below `lo`
//      and above `hi`, and copies those in (lo, hi] into a scratch band.
//      Values equal to `lo` are counted, not copied, so a heavy tie at the
//      bracket's low end (say the zeros of a buffering ratio) stays out of
//      the band; when lo == hi the band stays empty.
//   3. If every value was counted (at-or-below-lo + band + above == n), the
//      sorted order is the runs [< lo] [== lo] (lo, hi] [> hi]. A rank in
//      the [== lo] run is `lo`, straight from the counts; a rank in the band
//      is nth_element over the band alone. A NaN fails every compare, so any
//      NaN -- in the sample or in the values -- breaks the count and lands
//      in step 4.
//   4. Otherwise (the rank lies outside [lo, hi], or a NaN) fall back to
//      nth_element over all the values: the same call on the same input as
//      the direct path, since steps 1-3 only read it.
//
// Exactness: with no NaN the four runs are disjoint and in sorted order, so
// the answer is the k-th value of the whole. It is the value nth_element
// would return, bit for bit, except where -0.0 and +0.0 tie at the rank:
// they compare equal, so either sign may come back, exactly as nth_element
// itself may return either.
//
// Constants. With s sample values and a slack of d ~ 3 sqrt(s p (1-p))
// sample ranks either side, the band holds about 2 d n / s <= 3 n / sqrt(s)
// distinct-valued values. The cost beyond the counting pass is about s
// (sample select) plus 3 n / sqrt(s) (band select), least near
// s ~ n^(2/3); the band is then about 3 n^(2/3) values, a share
// 3 / n^(1/3) of them: 30% at 1K, 8% at 50K. The cap of 4096 sample values
// (32 KiB) keeps the sample in L1/L2; past n ~ 260K it lets the band grow
// to ~5% of n, still cheap. On uniform doubles the bracketed path breaks
// even with one nth_element between n ~ 450 and ~650, so kDirectSelectMax
// = 512 sits where either path takes under 2 us.
//
// Measured against one nth_element (x86-64 Xeon, GCC 12 -O2, best of 3
// rounds over many distinct inputs; n = 1K to 1M, q = 0.5 and 0.9):
//   - distinct values (uniform doubles, 16-bit integers): 1.4x faster at
//     1K, ~2x at 4K-10K, 2.5-3x at 42K, 3-4x at 1M;
//   - few distinct values (integers 0-3 or 0-9): 1.7-3.8x faster;
//   - one value holding 80% / 89% of the input (a zero-heavy buffering
//     ratio): 1.2-2.5x / 1.0-1.8x faster;
//   - one value holding 97% of the input: 0.6-0.9x, and all values equal:
//     0.4-0.55x, i.e. up to ~2.4x nth_element's time. There nth_element
//     itself is cheap (1-2 ns a value, its partitions split runs of equal
//     keys evenly) and the counting pass is most of the kernel's cost.
// Inputs the program feeds it: the store benchmark's grouped values are
// 16-bit values with short tie runs; a scale run's whole-run QoeSummary
// (20000 sessions, 80 sectors) is 89% zeros with p90 just above them; the
// sparse benchmark's (10000 sessions) is all zeros, ~30 us against ~15 us;
// scenario summaries and per-sector summaries have at most a few hundred
// sessions and take the direct path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace eona::telemetry {

/// Up to this many values the kernel is one nth_element.
inline constexpr std::size_t kDirectSelectMax = 512;
/// Most values the bracketing sample copies.
inline constexpr std::size_t kRankSampleMax = 4096;

/// Index of the lower nearest-rank q-percentile among n > 0 sorted values.
[[nodiscard]] inline std::size_t nearest_rank_index(std::size_t n, double q) {
  return static_cast<std::size_t>(q * static_cast<double>(n - 1));
}

/// Reusable buffers for nearest_rank(). A caller that selects repeatedly
/// keeps one, so no selection allocates once the buffers have grown. The
/// band is left uninitialised: only the slots a pass writes are touched.
struct RankScratch {
  std::vector<double> sample;
  std::unique_ptr<double[]> band;
  std::size_t band_capacity = 0;
};

/// Lower nearest-rank q-percentile of `values` (non-empty, q in [0, 1]).
/// May reorder `values`.
[[nodiscard]] inline double nearest_rank(std::span<double> values, double q,
                                         RankScratch& scratch) {
  EONA_EXPECTS(!values.empty());
  const std::size_t n = values.size();
  const std::size_t k = nearest_rank_index(n, q);
  const auto select_all = [&] {
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
  };
  if (n <= kDirectSelectMax) return select_all();

  // 1. Strided sample and the bracketing sample ranks.
  const double cube_root = std::cbrt(static_cast<double>(n));
  const std::size_t s = std::min(
      kRankSampleMax, static_cast<std::size_t>(cube_root * cube_root));
  const std::size_t stride = n / s;
  std::vector<double>& sample = scratch.sample;
  sample.clear();
  for (std::size_t i = 0; i < s; ++i) sample.push_back(values[i * stride]);
  const double p = static_cast<double>(k) / static_cast<double>(n);
  const auto center = static_cast<std::ptrdiff_t>(p * static_cast<double>(s));
  const auto slack = static_cast<std::ptrdiff_t>(
      3.0 * std::sqrt(static_cast<double>(s) * p * (1.0 - p)) + 1.0);
  const std::ptrdiff_t lo_rank = center - slack;
  const std::ptrdiff_t hi_rank = center + slack;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  auto lo_end = sample.end();
  if (hi_rank < static_cast<std::ptrdiff_t>(s)) {
    lo_end = sample.begin() + hi_rank;
    std::nth_element(sample.begin(), lo_end, sample.end());
    hi = *lo_end;
  }
  if (lo_rank >= 0) {
    std::nth_element(sample.begin(), sample.begin() + lo_rank, lo_end);
    lo = sample[static_cast<std::size_t>(lo_rank)];
  }

  // 2. Count the values below lo, at or below lo and above hi; copy those
  // in (lo, hi] into the band. Writes always land in band[0, n): the cursor
  // advances only on a band hit.
  if (scratch.band_capacity < n) {
    scratch.band_capacity = std::max(n, 2 * scratch.band_capacity);
    scratch.band = std::make_unique_for_overwrite<double[]>(
        scratch.band_capacity);
  }
  double* band = scratch.band.get();
  std::size_t below = 0;
  std::size_t upto_lo = 0;
  std::size_t above = 0;
  std::size_t in_band = 0;
  for (const double v : values) {
    const bool at_most_lo = v <= lo;
    below += static_cast<std::size_t>(v < lo);
    upto_lo += static_cast<std::size_t>(at_most_lo);
    above += static_cast<std::size_t>(v > hi);
    band[in_band] = v;
    in_band += static_cast<std::size_t>((v <= hi) & !at_most_lo);
  }

  // 3. Every value counted: the sorted order is [< lo] [== lo] (lo, hi]
  // [> hi], starting at 0, below, upto_lo and upto_lo + in_band.
  if (upto_lo + in_band + above == n) {
    if (below <= k && k < upto_lo) return lo;
    if (upto_lo <= k && k < upto_lo + in_band) {
      double* target = band + (k - upto_lo);
      std::nth_element(band, target, band + in_band);
      return *target;
    }
  }
  // 4. Missed bracket or NaN: the direct path on the untouched input.
  return select_all();
}

/// As above with one-off scratch, for callers that select once.
[[nodiscard]] inline double nearest_rank(std::span<double> values, double q) {
  RankScratch scratch;
  return nearest_rank(values, q, scratch);
}

}  // namespace eona::telemetry
