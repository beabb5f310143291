#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001B3ull + stream);
  return mix.Next();
}

Zipf::Zipf(int64_t n, double s) {
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0;
  for (int64_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int64_t Zipf::Sample(Rng* rng) const {
  double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int64_t>(it - cdf_.begin()) + 1;
}

namespace {

// Percentile p = 1 - 1/d keeps floor(n / d) samples above its nearest rank
// ceil(p * n) = n - floor(n / d); integer arithmetic avoids the rounding a
// floating ceil(0.999 * n) would suffer.
struct Rung {
  double pct;
  size_t denom;
};
constexpr Rung kLadder[] = {{50, 2},      {90, 10},      {99, 100},
                            {99.9, 1000}, {99.99, 10000}, {99.999, 100000}};

size_t RankOf(size_t n, size_t denom) { return n - n / denom; }

}  // namespace

double TailPercentile(size_t n) {
  double best = 0;
  for (const Rung& rung : kLadder) {
    if (n / rung.denom >= 10) best = rung.pct;
  }
  return best;
}

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  for (const Rung& rung : kLadder) {
    if (rung.pct == pct) rank = RankOf(n, rung.denom);
  }
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

namespace {

// p50 and tail of one block, at the block's highest rung (the maximum,
// marked p100, when the block is too small for any rung).
void BlockStats(std::vector<double> us, double* p50, double* tail,
                double* pct) {
  std::sort(us.begin(), us.end());
  *p50 = NearestRank(us, 50);
  *pct = TailPercentile(us.size());
  if (*pct == 0) *pct = 100;
  *tail = *pct == 100 ? us.back() : NearestRank(us, *pct);
}

}  // namespace

LatencySummary Samples::Summarize(size_t block) const {
  LatencySummary s;
  s.n = samples_.size();
  if (samples_.empty()) return s;
  std::vector<std::pair<int64_t, double>> ordered = samples_;
  std::sort(ordered.begin(), ordered.end());
  std::vector<double> all;
  for (const auto& [at, us] : ordered) all.push_back(us);
  BlockStats(all, &s.run_p50_us, &s.run_tail_us, &s.run_tail_pct);

  const size_t size = std::min(block, all.size());
  std::vector<double> p50s, tails;
  for (size_t begin = 0; begin + size <= all.size(); begin += size) {
    double p50 = 0, tail = 0;
    BlockStats(std::vector<double>(all.begin() + begin,
                                   all.begin() + begin + size),
               &p50, &tail, &s.tail_pct);
    p50s.push_back(p50);
    tails.push_back(tail);
  }
  s.blocks = p50s.size();
  s.p50_us = Median(p50s);
  s.tail_us = Median(tails);
  return s;
}

int64_t ReadStealTicks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // cpu  user nice system idle iowait irq softirq steal ...
  std::istringstream fields(line);
  std::string label;
  int64_t value = 0;
  fields >> label;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> value)) return -1;
  }
  return label == "cpu" ? value : -1;
}

void SliceMeter::Start(int64_t now_ns) {
  slices_.clear();
  begin_ns_ = now_ns;
  next_ns_ = now_ns + kSliceNs;
  steal_ = ReadStealTicks();
}

void SliceMeter::Finish(int64_t now_ns) {
  if (slices_.empty() || now_ns - begin_ns_ >= kSliceNs / 2) {
    Read(now_ns);
    return;
  }
  const int64_t steal = ReadStealTicks();
  Slice& last = slices_.back();
  last.end_ns = now_ns;
  if (last.steal_ticks >= 0) {
    last.steal_ticks =
        steal < 0 || steal_ < 0 ? -1 : last.steal_ticks + steal - steal_;
  }
  steal_ = steal;
}

void SliceMeter::Read(int64_t now_ns) {
  const int64_t steal = ReadStealTicks();
  slices_.push_back({begin_ns_, now_ns,
                     steal < 0 || steal_ < 0 ? -1 : steal - steal_});
  begin_ns_ = now_ns;
  next_ns_ = now_ns + kSliceNs;
  steal_ = steal;
}

void Tally::Fail(const std::string& what) {
  failed.fetch_add(1);
  if (failures_logged.fetch_add(1) < 10) {
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ", ") + FormatDouble(v);
  return "[" + out + "]";
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonEscape(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += FormatDouble(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonEscape(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
