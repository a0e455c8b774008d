//===- support/Histogram.h - Simple statistics accumulator -----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A streaming statistics accumulator (count / mean / min / max / geomean)
/// used by the benchmark harness to summarize per-benchmark series the way
/// the paper reports averages, plus the telemetry subsystem's
/// log-bucketed quantile histogram (LogHistogram below).
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_HISTOGRAM_H
#define GDP_SUPPORT_HISTOGRAM_H

#include <cmath>
#include <cstdint>
#include <map>

namespace gdp {

/// Accumulates a series of double samples and reports summary statistics.
class Stats {
public:
  /// Adds one sample.
  void add(double X);

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const;
  /// Geometric mean; all samples must have been positive.
  double geomean() const;
  double min() const { return Min; }
  double max() const { return Max; }

private:
  uint64_t Count = 0;
  double Sum = 0;
  double LogSum = 0;
  bool AnyNonPositive = false;
  double Min = 0;
  double Max = 0;
};

namespace telemetry {

/// HDR-style log-bucketed histogram: each power-of-two octave is split
/// into `SubBucketsPerOctave` equal-width sub-buckets, so a sample lands
/// in a bucket whose width is at most 1/SubBucketsPerOctave of its
/// magnitude (≤ 12.5% relative error at 8 sub-buckets). Bucketing is a
/// pure function of the sample's bits (frexp), so two histograms built
/// from the same multiset of samples — in any order, on any thread split —
/// have identical buckets, and merging is exact bucket-count addition.
/// Quantiles report the upper edge of the bucket holding the requested
/// rank, which makes p50/p90/p99 deterministic and mergeable.
///
/// Samples that are zero, negative or non-finite carry no magnitude to
/// bucket; they count toward `underflowCount()` and rank below every
/// bucket (quantile reports 0 for them).
class LogHistogram {
public:
  static constexpr int SubBucketsPerOctave = 8;

  /// Bucket index of a positive finite sample: octave * 8 + sub-bucket.
  static int32_t bucketIndex(double V) {
    int Exp;
    double M = std::frexp(V, &Exp); // M in [0.5, 1), V = M * 2^Exp.
    int Sub = static_cast<int>((M - 0.5) * 2 * SubBucketsPerOctave);
    if (Sub >= SubBucketsPerOctave)
      Sub = SubBucketsPerOctave - 1;
    return static_cast<int32_t>(Exp) * SubBucketsPerOctave + Sub;
  }

  /// Exclusive upper edge of bucket \p Index (its quantile representative).
  static double bucketUpperEdge(int32_t Index) {
    int32_t Oct = Index >= 0 ? Index / SubBucketsPerOctave
                             : (Index - (SubBucketsPerOctave - 1)) /
                                   SubBucketsPerOctave;
    int32_t Sub = Index - Oct * SubBucketsPerOctave;
    return std::ldexp(0.5 + static_cast<double>(Sub + 1) /
                                (2 * SubBucketsPerOctave),
                      Oct);
  }

  void add(double V, uint64_t N = 1) {
    Total += N;
    if (!(V > 0) || !std::isfinite(V)) {
      Underflow += N;
      return;
    }
    Buckets[bucketIndex(V)] += N;
  }

  /// Adds \p N samples directly into bucket \p Index — the decoding half
  /// of the serving layer's binary stats codec (serve/Wire.h). Exact:
  /// round-tripping a histogram through (buckets(), addBucket) preserves
  /// every bucket count, so cross-process merges stay exact too.
  void addBucket(int32_t Index, uint64_t N) {
    Total += N;
    Buckets[Index] += N;
  }

  /// Adds \p N underflow samples (zero/negative/non-finite); the codec's
  /// counterpart of underflowCount().
  void addUnderflow(uint64_t N) {
    Total += N;
    Underflow += N;
  }

  /// Exact merge: bucket counts add up, order-independent.
  void merge(const LogHistogram &O) {
    Total += O.Total;
    Underflow += O.Underflow;
    for (const auto &[Index, N] : O.Buckets)
      Buckets[Index] += N;
  }

  uint64_t count() const { return Total; }
  uint64_t underflowCount() const { return Underflow; }
  const std::map<int32_t, uint64_t> &buckets() const { return Buckets; }

  /// Value at quantile \p Q in [0, 1]: the upper edge of the bucket that
  /// contains the sample of rank ceil(Q * count).
  double quantile(double Q) const {
    if (Total == 0)
      return 0;
    double Want = std::ceil(Q * static_cast<double>(Total));
    uint64_t Rank = Want < 1 ? 1 : static_cast<uint64_t>(Want);
    if (Rank > Total)
      Rank = Total;
    uint64_t Acc = Underflow;
    if (Acc >= Rank)
      return 0;
    for (const auto &[Index, N] : Buckets) {
      Acc += N;
      if (Acc >= Rank)
        return bucketUpperEdge(Index);
    }
    return 0; // Unreachable: buckets sum to Total - Underflow.
  }

private:
  std::map<int32_t, uint64_t> Buckets;
  uint64_t Underflow = 0;
  uint64_t Total = 0;
};

} // namespace telemetry
} // namespace gdp

#endif // GDP_SUPPORT_HISTOGRAM_H
