// Measurement primitives shared by every workload: a seeded generator, a
// Zipf sampler, latency sample sets with the tail-percentile rule, pass/fail
// tallies, process resource readings and a minimal JSON writer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: every generated input derives from the run's seed through
/// one of these, so a seed fixes the op stream byte for byte.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// True with probability percent/100.
  bool Percent(int percent) { return Range(0, 99) < percent; }

 private:
  uint64_t state_;
};

/// Seed for stream `stream` of a run seeded with `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Zipf(s) over 1..n: rank 1 is the hottest key.
class Zipf {
 public:
  Zipf(int64_t n, double s);
  int64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99,
/// p99.999 that leaves at least 10 of `n` samples strictly above its rank
/// (nearest-rank definition). Returns 0 when n < 20 (no tail exists).
double TailPercentile(size_t n);

struct LatencySummary {
  size_t n = 0;         // samples in the run
  size_t blocks = 0;    // blocks the medians are taken over
  double p50_us = 0;    // median of the blocks' medians
  double tail_us = 0;   // median of the blocks' tails
  double tail_pct = 0;  // the percentile each block's tail reports
  // The same two statistics over the whole run, unblocked (the tail at the
  // highest rung TailPercentile allows for n), kept for reference.
  double run_p50_us = 0;
  double run_tail_us = 0;
  double run_tail_pct = 0;
};

/// Latency samples of one op class, in microseconds, stamped with the
/// time each op completed.
class Samples {
 public:
  void Add(double us, int64_t at_ns) { samples_.push_back({at_ns, us}); }
  void Append(const Samples& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  size_t size() const { return samples_.size(); }

  /// Splits the samples, in completion order, into consecutive blocks of
  /// `block` samples (a trailing partial block is dropped unless it is the
  /// only one) and reports the median over blocks of each block's p50 and
  /// tail. A block's tail is its highest rung with at least 10 samples
  /// beyond it, so a fixed block size fixes the percentile across runs,
  /// and a burst of interference moves one block, not the median.
  LatencySummary Summarize(size_t block) const;

 private:
  std::vector<std::pair<int64_t, double>> samples_;
};

/// Host CPU time stolen from this machine's CPUs (the steal column of
/// /proc/stat, all CPUs, in clock ticks), or -1 where it cannot be read.
int64_t ReadStealTicks();

/// Splits a measurement window into three-second slices and records the
/// CPU time the host stole from this machine in each. Throughput is the
/// median over the slices, so a burst of host contention moves one slice,
/// not the result. The steal per slice goes into the run metadata: on a
/// shared host it comes and goes over seconds to minutes and explains most
/// of the spread between runs. Poll is called by a client loop between ops;
/// a slice ends at the first call past its mark, within one op of it.
class SliceMeter {
 public:
  struct Slice {
    int64_t begin_ns, end_ns;
    int64_t steal_ticks;  // -1 when the steal counter is unreadable
  };
  void Start(int64_t now_ns);
  void Poll(int64_t now_ns) {
    if (now_ns >= next_ns_) Read(now_ns);
  }
  /// Closes the last slice at `now_ns`; a remainder shorter than half a
  /// slice joins the slice before it.
  void Finish(int64_t now_ns);
  const std::vector<Slice>& slices() const { return slices_; }

 private:
  void Read(int64_t now_ns);
  static constexpr int64_t kSliceNs = 3'000'000'000;
  std::vector<Slice> slices_;
  int64_t begin_ns_ = 0, next_ns_ = 0, steal_ = -1;
};

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile of sorted data: the value at rank ceil(p/100*n),
/// computed exactly for the ladder rungs.
double NearestRank(const std::vector<double>& sorted, double pct);

/// Attempted and failed operations; a wrong answer is a failure.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> failures_logged{0};
  /// Counts a failure; the first ten messages go to stderr.
  void Fail(const std::string& what);
};

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// Peak resident set size in MiB.
double PeakRssMb();

/// Builds one flat JSON object; values are numbers, strings or raw JSON.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Text of a double with all 17 significant digits (round-trips).
std::string FormatDouble(double v);
/// JSON array of doubles, each written by FormatDouble.
std::string JsonList(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
