// perfbench: end-to-end benchmark of the Cypher engine.
//
//   perfbench --workload oltp|analytics|ingest --seed N --seconds S
//             --trace 0|1 --run-dir DIR [--trace-out FILE]
//             [--git-sha SHA] [--source-digest HEX]
//   perfbench --selftest
//
// Prints a metadata line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits 1 when any output check fails, 2 on bad usage or failed set-up.
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "harness.h"
#include "ops.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// ---- Self-tests -----------------------------------------------------------------

bool Expect(bool ok, const std::string& what) {
  if (!ok) std::cerr << "perfbench selftest failed: " << what << "\n";
  return ok;
}

/// The first ops of every stream, serialized.
std::string OpStream(uint64_t seed) {
  MarketSpec spec{300, 60, 900};
  Market market = GenerateMarket(spec, StreamSeed(seed, 0));
  Zipf zipf(spec.users, 0.9);
  OltpLeaderStream leader(&market, &zipf, StreamSeed(seed, 1));
  OltpSnapshotStream snapshot(&zipf, StreamSeed(seed, 2));
  AnalyticsStream analytics(&market, StreamSeed(seed, 1));
  IngestStream ingest(&market, StreamSeed(seed, 1), 16);
  std::string out;
  for (int i = 0; i < 200; ++i) {
    out += SerializeOp(leader.Next()) + "\n";
    out += SerializeOp(snapshot.Next()) + "\n";
    out += SerializeOp(analytics.Next()) + "\n";
    auto [batch, check] = ingest.Next();
    out += SerializeOp(batch) + "\n" + SerializeOp(check) + "\n";
  }
  return out;
}

bool TestStreamsFollowSeed() {
  const std::string a = OpStream(7), b = OpStream(7), c = OpStream(8);
  return Expect(a == b, "same seed gives a different op stream") &
         Expect(a != c, "different seeds give the same op stream");
}

bool TestTailRule() {
  bool ok = true;
  for (size_t n : {19, 20, 99, 100, 101, 999, 1000, 1009, 1010, 12345, 99999,
                   100000, 2000000}) {
    const std::string at = " at n=" + std::to_string(n);
    std::vector<double> sorted;
    for (size_t i = 1; i <= n; ++i) sorted.push_back(static_cast<double>(i));
    const double pct = TailPercentile(n);
    if (n < 20) {
      ok &= Expect(pct == 0, "tail defined" + at);
      continue;
    }
    const double value = NearestRank(sorted, pct);
    const size_t beyond = n - static_cast<size_t>(value);
    ok &= Expect(beyond >= 10,
                 "fewer than 10 samples beyond p" + FormatDouble(pct) + at);
    // The next rung up must leave fewer than 10 beyond it.
    const double next = pct == 50 ? 90 : 100 - (100 - pct) / 10;
    if (next < 100) {
      const size_t next_beyond = n - static_cast<size_t>(NearestRank(sorted, next));
      ok &= Expect(next_beyond < 10,
                   FormatDouble(pct) + " is not the highest rung" + at);
    }
  }
  Samples s;
  for (int i = 999; i >= 0; --i) s.Add(i, i);  // completion order = value
  LatencySummary whole = s.Summarize(1000);
  ok &= Expect(whole.blocks == 1 && whole.tail_pct == 99 &&
                   whole.p50_us == 499 && whole.tail_us == 989,
               "one-block summary of 0..999");
  // Ten blocks of 100: block b holds 100b..100b+99, so its p50 is 100b+49
  // and its p90 100b+89; the medians over blocks fall between b=4 and 5.
  LatencySummary blocked = s.Summarize(100);
  ok &= Expect(blocked.blocks == 10 && blocked.tail_pct == 90 &&
                   blocked.p50_us == 499 && blocked.tail_us == 539 &&
                   blocked.run_tail_pct == 99 && blocked.run_tail_us == 989,
               "blocked summary of 0..999");
  return ok;
}

bool TestFailuresCounted() {
  cypher::GraphDatabase db;
  if (!db.Run("CREATE (:User {id: 1, name: 'u1', age: 30})").ok()) {
    return Expect(false, "could not seed the self-test graph");
  }
  Tally tally;
  Samples samples;
  Op right = UserPointRead(1, false);
  Op wrong = UserPointRead(1, true);
  wrong.expect.first = cypher::Value::String("u2");  // a wrong answer
  Op broken = right;
  broken.text = "MATCH (u:User RETURN u";  // an engine error
  std::cerr.setstate(std::ios::failbit);   // expected failures stay quiet
  bool r1 = RunLeaderOp(db, right, "selftest", &samples, &tally).ok;
  bool r2 = RunLeaderOp(db, wrong, "selftest", &samples, &tally).ok;
  bool r3 = RunLeaderOp(db, broken, "selftest", &samples, &tally).ok;
  std::cerr.clear();
  return Expect(r1 && !r2 && !r3, "op outcomes") &
         Expect(tally.attempted == 3 && tally.failed == 2,
                "failures not counted against attempts") &
         Expect(samples.size() == 1, "failed ops must not add latency");
}

bool RunSelfTests() {
  return TestStreamsFollowSeed() & TestTailRule() & TestFailuresCounted();
}

// ---- Command line ----------------------------------------------------------------

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload oltp|analytics|ingest --seed N "
               "--seconds S --trace 0|1 --run-dir DIR [--trace-out FILE] "
               "[--git-sha SHA] [--source-digest HEX] | --selftest\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--selftest") {
      args.emplace(key, std::string(1, '1'));
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage(("unexpected argument " + key).c_str());
    }
  }
  if (!RunSelfTests()) return 1;
  if (args.count("--selftest")) {
    std::cerr << "perfbench selftest: ok\n";
    return 0;
  }

  RunConfig cfg;
  try {
    cfg.workload = args.at("--workload");
    cfg.seed = std::stoull(args.at("--seed"));
    cfg.seconds = std::stod(args.at("--seconds"));
    cfg.trace = std::stoi(args.at("--trace")) != 0;
    cfg.run_dir = args.at("--run-dir");
  } catch (const std::exception&) {
    return Usage("missing or malformed argument");
  }
  if (!KnownWorkload(cfg.workload)) return Usage("unknown workload");
  if (cfg.seconds <= 0) return Usage("--seconds must be positive");
  cfg.trace_out = args.count("--trace-out") ? args["--trace-out"] : "";
  cfg.nproc = Nproc();

  std::error_code ec;
  std::filesystem::create_directories(cfg.run_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.run_dir).c_str());
  RunReport report = RunWorkload(cfg);
  std::filesystem::remove_all(cfg.run_dir, ec);
  if (!report.error.empty()) {
    std::cerr << "perfbench: " << report.error << "\n";
    return 2;
  }

  std::string meta = JsonObject()
                         .Int("nproc", cfg.nproc)
                         .Str("compiler", PERFBENCH_COMPILER)
                         .Str("build_type", PERFBENCH_BUILD_TYPE)
                         .Str("git_sha", args.count("--git-sha")
                                             ? args["--git-sha"]
                                             : "unknown")
                         .Str("source_digest", args.count("--source-digest")
                                                   ? args["--source-digest"]
                                                   : "unknown")
                         .Bool("trace", cfg.trace)
                         .Raw("run", report.meta)
                         .Done();
  std::cout << JsonObject().Raw("meta", meta).Done() << "\n";

  JsonObject metrics;
  for (const Metric& m : report.metrics) {
    metrics.Raw(m.name,
                JsonObject().Num("value", m.value).Str("unit", m.unit).Done());
  }
  std::cout << JsonObject()
                   .Bool("correct", report.correct)
                   .Int("attempted", static_cast<int64_t>(report.attempted))
                   .Int("failed", static_cast<int64_t>(report.failed))
                   .Raw("metrics", metrics.Done())
                   .Done()
            << std::endl;
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
