#include "workloads.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "exec/render.h"
#include "ops.h"
#include "parser/parser.h"
#include "rig.h"
#include "storage/wal.h"
#include "trace.h"
#include "vm/normalize.h"

namespace perfbench {
namespace {

using cypher::GraphDatabase;

// ---- Per-client measurements -------------------------------------------------

struct ClientStats {
  Samples read, write, snapshot, lag;
  uint64_t ops = 0;          // statements counted toward throughput
  uint64_t updates = 0;      // acknowledged updates (statements or rows)
  uint64_t write_stmts = 0;  // acknowledged update statements
  uint64_t session_hits = 0, session_misses = 0;
  std::vector<int64_t> done_ns;  // completion times of those statements
  std::vector<Op> reads;        // read ops kept for post passes (traced)
  std::set<std::string> texts;  // distinct statement texts (traced)

  void Merge(ClientStats&& o) {
    read.Append(o.read);
    write.Append(o.write);
    snapshot.Append(o.snapshot);
    lag.Append(o.lag);
    ops += o.ops;
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
    updates += o.updates;
    write_stmts += o.write_stmts;
    session_hits += o.session_hits;
    session_misses += o.session_misses;
    for (Op& op : o.reads) {
      if (reads.size() < kReadSample) reads.push_back(std::move(op));
    }
    texts.merge(o.texts);
  }

  static constexpr size_t kReadSample = 48;
  static constexpr size_t kTextCap = 600;
};

void CountOp(ClientStats* cs) {
  ++cs->ops;
  cs->done_ns.push_back(NowNs());
}

/// Keeps statement texts and a sample of read ops while tracing, for the
/// parse / EXPLAIN / PROFILE / parallel post passes.
void Remember(const Op& op, ClientStats* cs) {
  if (!trace::Enabled()) return;
  if (cs->texts.size() < ClientStats::kTextCap) cs->texts.insert(op.text);
  if (op.cls == OpClass::kRead && cs->reads.size() < ClientStats::kReadSample) {
    cs->reads.push_back(op);
  }
}

/// Checks a final condition, counting it as one attempted operation.
void Require(bool ok, const std::string& what, Tally* tally) {
  tally->attempted.fetch_add(1);
  if (!ok) tally->Fail(what);
}

int64_t Deadline(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

// ---- Workloads ----------------------------------------------------------------

/// Samples per block for latency medians (see Samples::Summarize). A block
/// of 100 makes each block's tail its p90, the highest percentile with 10
/// samples beyond it. Run-wide p99s of fsync-bound writes moved by 40-80%
/// between runs on the 4-core development VM, block p90s by under 10%, so
/// the blocked p90 is the gated tail and the run-wide figures are kept in
/// the metadata line.
constexpr size_t kBlock = 100;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual MarketSpec Sizes() const = 0;
  virtual DeploymentSpec Deploy(const RunConfig& cfg) const = 0;
  /// Threads the workload runs: clients, engine workers, replication.
  virtual int Threads(int nproc) const = 0;
  /// Creates the op streams; called once, after the last set-up.
  virtual void Start(const Market& market, Deployment* d, uint64_t seed,
                     int nproc) = 0;
  /// Runs the clients for `seconds`; the main client loop polls `slices`.
  virtual ClientStats Window(double seconds, Tally* tally,
                             SliceMeter* slices) = 0;
  virtual void FinalChecks(Tally* tally) = 0;
  /// The database whose read sessions serve the market graph, or nullptr
  /// when no session reads it.
  virtual GraphDatabase* SessionDb() = 0;
};

// oltp: the serving path. One leader client (reads and small durable
// writes) and two snapshot clients on the leader's MVCC read sessions;
// the follower is applied inline by the leader client after each write.
class Oltp : public Workload {
 public:
  MarketSpec Sizes() const override { return {10000, 2000, 50000}; }
  DeploymentSpec Deploy(const RunConfig& cfg) const override {
    DeploymentSpec s;
    s.wal_path = cfg.run_dir + "/oltp.wal";
    s.leader_mvcc = true;
    s.auto_checkpoint_bytes = 1 << 20;
    s.link = FollowerLink::kInline;
    return s;
  }
  int Threads(int) const override { return 1 + kSnapshotClients; }
  void Start(const Market& market, Deployment* d, uint64_t seed,
             int) override {
    d_ = d;
    zipf_ = std::make_unique<Zipf>(market.spec.users, 0.9);
    leader_ = std::make_unique<OltpLeaderStream>(&market, zipf_.get(),
                                                 StreamSeed(seed, 1));
    for (int i = 0; i < kSnapshotClients; ++i) {
      snapshots_.emplace_back(zipf_.get(), StreamSeed(seed, 2 + i));
    }
  }
  ClientStats Window(double seconds, Tally* tally,
                     SliceMeter* slices) override {
    const int64_t deadline = Deadline(seconds);
    std::vector<ClientStats> snap(kSnapshotClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kSnapshotClients; ++i) {
      threads.emplace_back([this, i, deadline, tally, &snap] {
        ClientStats& cs = snap[i];
        auto session = d_->leader().BeginReadSession();
        if (!session.ok()) {
          Require(false, "BeginReadSession: " + session.status().ToString(),
                  tally);
          return;
        }
        while (NowNs() < deadline) {
          Op op = snapshots_[i].Next();
          Remember(op, &cs);
          trace::Span root("op.snapshot");
          if (RunSessionOp(*session, op, &cs.snapshot, tally)) CountOp(&cs);
        }
        cs.session_hits = session->cache_counters().hits;
        cs.session_misses = session->cache_counters().misses;
      });
    }
    ClientStats cs;
    GraphDatabase& db = d_->leader();
    for (int64_t now = NowNs(); now < deadline; now = NowNs()) {
      slices->Poll(now);
      Op op = leader_->Next();
      Remember(op, &cs);
      if (op.cls == OpClass::kRead) {
        trace::Span root("op.read");
        if (RunLeaderOp(db, op, "cypher.execute.read", &cs.read, tally).ok) {
          CountOp(&cs);
        }
        continue;
      }
      OpOutcome w;
      {
        trace::Span root("op.write");
        w = RunLeaderOp(db, op, "cypher.execute.write", &cs.write, tally);
      }
      if (!w.ok) continue;
      CountOp(&cs);
      ++cs.updates;
      ++cs.write_stmts;
      trace::Span root("op.repl_wait");
      if (d_->ApplyInlineUntil(d_->LeaderLsn())) {
        cs.lag.Add((NowNs() - w.end_ns) / 1e3, w.end_ns);
      } else {
        Require(false, "inline follower did not apply a commit", tally);
      }
    }
    for (std::thread& t : threads) t.join();
    for (ClientStats& s : snap) cs.Merge(std::move(s));
    return cs;
  }
  void FinalChecks(Tally* tally) override {
    std::string why;
    bool ok = d_->ApplyInlineUntil(d_->LeaderLsn()) &&
              FollowerMatchesLeader(d_, &why);
    Require(ok, "oltp follower: " + why, tally);
    why.clear();
    ok = RecoveryMatchesLeader(d_, &why);
    Require(ok, "oltp recovery: " + why, tally);
  }
  GraphDatabase* SessionDb() override { return &d_->leader(); }

 private:
  static constexpr int kSnapshotClients = 2;
  Deployment* d_ = nullptr;
  std::unique_ptr<Zipf> zipf_;
  std::unique_ptr<OltpLeaderStream> leader_;
  std::vector<OltpSnapshotStream> snapshots_;
};

// analytics: scan / aggregate / join pipelines on the thread pool, over a
// market graph with no log, follower or MVCC. Each query's row count is
// written back to a :Report node on a separate durable leader (in-memory
// log, nothing waits for the disk), applied inline on its follower and
// read back through a follower session: a side path that gives every
// end-to-end metric a value and costs a few percent of a query. On the
// market graph the log would have to hold its snapshot, and the shipper
// copies the whole log per commit (see README), so the side path would
// measure that copy, not the write.
class Analytics : public Workload {
 public:
  MarketSpec Sizes() const override { return {12000, 2400, 48000}; }
  DeploymentSpec Deploy(const RunConfig& cfg) const override {
    DeploymentSpec s;
    s.parallel_workers = static_cast<size_t>(cfg.nproc);
    s.link = FollowerLink::kInline;
    s.separate_market = true;
    return s;
  }
  int Threads(int nproc) const override { return nproc; }
  void Start(const Market& market, Deployment* d, uint64_t seed,
             int nproc) override {
    d_ = d;
    market_ = &market;
    seed_ = seed;
    nproc_ = nproc;
    stream_ = std::make_unique<AnalyticsStream>(&market, StreamSeed(seed, 1));
  }
  ClientStats Window(double seconds, Tally* tally,
                     SliceMeter* slices) override {
    auto session = d_->follower().BeginReadSession();
    ClientStats cs;
    if (!session.ok()) {
      Require(false, "BeginReadSession: " + session.status().ToString(),
              tally);
      return cs;
    }
    GraphDatabase& db = d_->market();
    const int64_t deadline = Deadline(seconds);
    for (int64_t now = NowNs(); now < deadline; now = NowNs()) {
      slices->Poll(now);
      Op op = stream_->Next();
      Remember(op, &cs);
      OpOutcome q;
      {
        trace::Span root("op.read");
        q = RunLeaderOp(db, op, "cypher.execute.read", &cs.read, tally);
      }
      if (!q.ok) continue;
      CountOp(&cs);
      const int64_t seq = ++seq_;
      // Unique per query, so the SET always changes the stored value.
      const int64_t value = seq * 1000 + static_cast<int64_t>(q.rows % 1000);
      OpOutcome w;
      {
        trace::Span root("op.write");
        w = RunLeaderOp(d_->leader(), AnalyticsStream::WriteBack(seq, value),
                        "cypher.execute.write", &cs.write, tally);
      }
      if (!w.ok) continue;
      values_[seq % kReports] = value;
      ++cs.updates;
      ++cs.write_stmts;
      {
        trace::Span root("op.repl_wait");
        if (!d_->ApplyInlineUntil(d_->LeaderLsn())) {
          Require(false, "inline follower did not apply a write-back", tally);
          continue;
        }
        cs.lag.Add((NowNs() - w.end_ns) / 1e3, w.end_ns);
      }
      // A dashboard's view of the reports: the new value, then the last
      // value of three other reports, each read after a Refresh.
      for (int64_t k = seq; k > seq - kReadBacks && k > 0; --k) {
        trace::Span root("op.snapshot");
        RunSessionOp(*session,
                     AnalyticsStream::ReadBack(k, values_[k % kReports]),
                     &cs.snapshot, tally);
      }
    }
    cs.session_hits = session->cache_counters().hits;
    cs.session_misses = session->cache_counters().misses;
    return cs;
  }
  void FinalChecks(Tally* tally) override {
    // A sample of queries renders byte-identically at 1 and nproc workers.
    AnalyticsStream probe(market_, StreamSeed(seed_, 99));
    GraphDatabase& db = d_->market();
    for (int i = 0; i < 8; ++i) {
      Op op = probe.Next();
      std::string rendered[2];
      for (int k = 0; k < 2; ++k) {
        cypher::EvalOptions opts = db.options();
        opts.parallel_workers = k == 0 ? 1 : static_cast<size_t>(nproc_);
        auto r = db.Execute(op.text, op.params, opts);
        if (r.ok()) rendered[k] = cypher::RenderResult(db.graph(), *r);
      }
      Require(!rendered[0].empty() && rendered[0] == rendered[1],
              "analytics: 1-worker and " + std::to_string(nproc_) +
                  "-worker results differ for " + op.text,
              tally);
    }
    std::string why;
    bool ok = d_->ApplyInlineUntil(d_->LeaderLsn()) &&
              FollowerMatchesLeader(d_, &why);
    Require(ok, "analytics follower: " + why, tally);
    why.clear();
    ok = RecoveryMatchesLeader(d_, &why);
    Require(ok, "analytics recovery: " + why, tally);
  }
  GraphDatabase* SessionDb() override { return nullptr; }

 private:
  Deployment* d_ = nullptr;
  const Market* market_ = nullptr;
  uint64_t seed_ = 0;
  int nproc_ = 1;
  int64_t seq_ = 0;
  static constexpr int64_t kReports = 32;  // :Report nodes, keyed seq % 32
  static constexpr int64_t kReadBacks = 4;
  int64_t values_[kReports] = {};  // last value written to each report
  std::unique_ptr<AnalyticsStream> stream_;
};

// ingest: 256-row update batches on the durable leader, shipped over a
// Unix-domain socket to a follower thread. After each batch the importer
// reads the batch back on the leader, and after every other batch it reads
// the follower's snapshot.
class Ingest : public Workload {
 public:
  MarketSpec Sizes() const override { return {5000, 1000, 20000}; }
  DeploymentSpec Deploy(const RunConfig& cfg) const override {
    DeploymentSpec s;
    s.wal_path = cfg.run_dir + "/ingest.wal";
    s.socket_path = cfg.run_dir + "/repl.sock";
    s.auto_checkpoint_bytes = kCheckpointBytes;
    s.link = FollowerLink::kSocket;
    return s;
  }
  // Importer, follower applier, replication server.
  int Threads(int) const override { return 3; }
  void Start(const Market& market, Deployment* d, uint64_t seed,
             int) override {
    d_ = d;
    users_ = market.spec.users;
    stream_ = std::make_unique<IngestStream>(&market, StreamSeed(seed, 1),
                                             kBatchRows);
    probe_rng_ = std::make_unique<Rng>(StreamSeed(seed, 2));
    log_bytes_ = checkpoint_bytes_ = LogBytes();
  }
  ClientStats Window(double seconds, Tally* tally,
                     SliceMeter* slices) override {
    ClientStats cs;
    auto session = d_->follower().BeginReadSession();
    if (!session.ok()) {
      Require(false, "BeginReadSession: " + session.status().ToString(),
              tally);
      return cs;
    }
    const int64_t deadline = Deadline(seconds);
    d_->StartFollowerThread();
    GraphDatabase& db = d_->leader();
    for (int64_t n = 1, now = NowNs(); now < deadline; ++n, now = NowNs()) {
      slices->Poll(now);
      auto [batch, check] = stream_->Next();
      Remember(batch, &cs);
      Remember(check, &cs);
      OpOutcome w;
      {
        trace::Span root("op.write");
        w = RunLeaderOp(db, batch, "cypher.execute.write", &cs.write, tally);
      }
      if (!w.ok) continue;
      d_->ExpectApplied(d_->LeaderLsn(), w.end_ns);
      CountOp(&cs);
      cs.updates += static_cast<uint64_t>(batch.rows_in);
      ++cs.write_stmts;
      if (CompactionDue()) AwaitFollowerAck(tally);
      {
        trace::Span root("op.read");
        RunLeaderOp(db, check, "cypher.execute.read", &cs.read, tally);
      }
      NoteCompaction();
      if (n % kProbeEvery == 0) ProbeFollower(*session, &cs, tally);
    }
    Require(d_->StopFollowerThread(), "socket follower fell behind", tally);
    cs.lag = d_->TakeLagSamples();
    cs.session_hits = session->cache_counters().hits;
    cs.session_misses = session->cache_counters().misses;
    return cs;
  }
  void FinalChecks(Tally* tally) override {
    std::string why;
    bool ok = FollowerMatchesLeader(d_, &why);
    Require(ok, "ingest follower: " + why, tally);
  }
  GraphDatabase* SessionDb() override { return &d_->follower().database(); }

 private:
  uint64_t LogBytes() { return d_->leader().wal_writer()->LogBytes(); }

  // Auto-checkpoint compacts at a commit only while no follower trails the
  // log head, so whether and where it runs would depend on thread timing.
  // The importer therefore applies the engine's own trigger (log past the
  // threshold and doubled since the last checkpoint) and, once it holds,
  // waits until the follower has acknowledged everything: the read-back
  // that follows compacts. Compaction then happens at the same batches in
  // every run of a seed, and the importer and the server's 2 ms loop run
  // unsynchronized between these rare waits.
  bool CompactionDue() {
    const uint64_t bytes = LogBytes();
    return bytes > kCheckpointBytes && bytes >= 2 * checkpoint_bytes_;
  }
  void AwaitFollowerAck(Tally* tally) {
    trace::Span span("op.ack_barrier");
    const int64_t deadline = Deadline(30);
    while (d_->leader().replication_status().min_acked_lsn < d_->LeaderLsn()) {
      if (NowNs() > deadline) {
        Require(false, "follower did not acknowledge the log head", tally);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // A checkpoint rewrites the log to one snapshot, so it shrinks.
  void NoteCompaction() {
    const uint64_t bytes = LogBytes();
    if (bytes < log_bytes_) checkpoint_bytes_ = bytes;
    log_bytes_ = bytes;
  }

  void ProbeFollower(GraphDatabase::ReadSession& session, ClientStats* cs,
                     Tally* tally) {
    Op op = UserPointRead(probe_rng_->Range(1, users_),
                          probe_rng_->Percent(50));
    op.cls = OpClass::kSnapshotRead;
    Remember(op, cs);
    trace::Span root("op.snapshot");
    RunSessionOp(session, op, &cs->snapshot, tally);
  }

  static constexpr int64_t kBatchRows = 256;
  static constexpr uint64_t kCheckpointBytes = 4 << 20;
  static constexpr int64_t kProbeEvery = 2;  // batches per follower read
  Deployment* d_ = nullptr;
  int64_t users_ = 0;
  uint64_t log_bytes_ = 0, checkpoint_bytes_ = 0;
  std::unique_ptr<IngestStream> stream_;
  std::unique_ptr<Rng> probe_rng_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "oltp") return std::make_unique<Oltp>();
  if (name == "analytics") return std::make_unique<Analytics>();
  if (name == "ingest") return std::make_unique<Ingest>();
  return nullptr;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- Traced-run post passes -----------------------------------------------------

double MeanParseUs(const std::set<std::string>& texts) {
  double total = 0;
  size_t n = 0;
  for (const std::string& text : texts) {
    int64_t t0 = NowNs();
    auto parsed = cypher::ParseQuery(text);
    int64_t t1 = NowNs();
    if (!parsed.ok()) continue;
    total += (t1 - t0) / 1e3;
    ++n;
  }
  return n == 0 ? 0 : total / n;
}

double MeanParametrizeUs(const std::set<std::string>& texts) {
  double total = 0;
  size_t n = 0;
  for (const std::string& text : texts) {
    auto parsed = cypher::ParseQuery(text);
    if (!parsed.ok()) continue;
    std::vector<cypher::Value> literals;
    int64_t t0 = NowNs();
    cypher::ParametrizeQuery(&*parsed, &literals);
    total += (NowNs() - t0) / 1e3;
    ++n;
  }
  return n == 0 ? 0 : total / n;
}

/// Sum of PROFILE's per-clause row counts over the rows the statements
/// return.
double RowsExaminedPerResult(GraphDatabase& db, const std::vector<Op>& reads) {
  double examined = 0, returned = 0;
  for (const Op& op : reads) {
    auto plain = db.Execute(op.text, op.params);
    auto profile = db.Execute("PROFILE " + op.text, op.params);
    if (!plain.ok() || !profile.ok()) continue;
    returned += static_cast<double>(plain->num_rows());
    for (const auto& row : profile->rows) {
      if (row.size() == 3 && row[2].is_int()) examined += row[2].AsInt();
    }
  }
  return returned == 0 ? examined : examined / returned;
}

/// Share of MATCH access paths EXPLAIN reports as index anchors, over one
/// statement per op kind. `explain` runs EXPLAIN on the leader or a session.
template <typename ExplainFn>
double IndexAnchorRatio(const std::vector<Op>& reads, ExplainFn explain) {
  std::set<std::string> kinds;
  size_t index = 0, scans = 0;
  auto count = [](const std::string& s, const std::string& needle) {
    size_t n = 0;
    for (size_t at = s.find(needle); at != std::string::npos;
         at = s.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const Op& op : reads) {
    if (!kinds.insert(op.kind).second) continue;
    auto plan = explain(op);
    if (!plan.ok()) continue;
    for (const auto& row : plan->rows) {
      if (row.size() < 3 || !row[2].is_string()) continue;
      index += count(row[2].AsString(), "index:");
      scans += count(row[2].AsString(), "scan:");
    }
  }
  return index + scans == 0 ? 0 : static_cast<double>(index) / (index + scans);
}

/// Wall time at 1 worker over wall time at `nproc` workers for the sampled
/// reads (best of three each), overall and for the aggregating ones.
std::pair<double, double> ParallelSpeedup(GraphDatabase& db,
                                          const std::vector<Op>& reads,
                                          int nproc) {
  double serial = 0, parallel = 0, agg_serial = 0, agg_parallel = 0;
  for (const Op& op : reads) {
    double best[2] = {1e300, 1e300};
    for (int rep = 0; rep < 3; ++rep) {
      for (int k = 0; k < 2; ++k) {
        cypher::EvalOptions opts = db.options();
        opts.parallel_workers = k == 0 ? 1 : static_cast<size_t>(nproc);
        int64_t t0 = NowNs();
        auto r = db.Execute(op.text, op.params, opts);
        double us = (NowNs() - t0) / 1e3;
        if (r.ok()) best[k] = std::min(best[k], us);
      }
    }
    if (best[0] == 1e300 || best[1] == 1e300) continue;
    serial += best[0];
    parallel += best[1];
    const std::string& t = op.text;
    bool aggregates = t.find("count(") != std::string::npos ||
                      t.find("sum(") != std::string::npos ||
                      t.find("avg(") != std::string::npos ||
                      t.find("max(") != std::string::npos ||
                      t.find("min(") != std::string::npos;
    if (aggregates) {
      agg_serial += best[0];
      agg_parallel += best[1];
    }
  }
  return {parallel == 0 ? 0 : serial / parallel,
          agg_parallel == 0 ? 0 : agg_serial / agg_parallel};
}

/// Best-of-three latency of user point reads on a snapshot session over
/// the same reads on the leader. Leader plans anchor on the :User(id)
/// index; pinned session plans cannot (property indexes are unversioned),
/// so this ratio is the cost of that fallback scan.
double SessionPointReadSlowdown(GraphDatabase& leader, GraphDatabase& session_db,
                                const Market& market, uint64_t seed) {
  auto session = session_db.BeginReadSession();
  if (!session.ok()) return 0;
  Rng rng(StreamSeed(seed, 98));
  double on_leader = 0, on_session = 0;
  for (int i = 0; i < 32; ++i) {
    Op op = UserPointRead(rng.Range(1, market.spec.users), false);
    double best[2] = {1e300, 1e300};
    for (int rep = 0; rep < 3; ++rep) {
      int64_t t0 = NowNs();
      bool ok = leader.Execute(op.text, op.params).ok();
      int64_t t1 = NowNs();
      ok = session->Execute(op.text, op.params).ok() && ok;
      int64_t t2 = NowNs();
      if (!ok) return 0;
      best[0] = std::min(best[0], (t1 - t0) / 1e3);
      best[1] = std::min(best[1], (t2 - t1) / 1e3);
    }
    on_leader += best[0];
    on_session += best[1];
  }
  return Ratio(on_session, on_leader);
}

// ---- Reporting --------------------------------------------------------------------

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

std::string SummaryJson(const LatencySummary& l) {
  return JsonObject()
      .Int("n", static_cast<int64_t>(l.n))
      .Int("blocks", static_cast<int64_t>(l.blocks))
      .Num("p50_us", l.p50_us)
      .Num("tail_pct", l.tail_pct)
      .Num("tail_us", l.tail_us)
      .Num("run_p50_us", l.run_p50_us)
      .Num("run_tail_pct", l.run_tail_pct)
      .Num("run_tail_us", l.run_tail_us)
      .Done();
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return MakeWorkload(name) != nullptr;
}

RunReport RunWorkload(const RunConfig& cfg) {
  RunReport report;
  std::unique_ptr<Deployment> d;  // outlives the workload's sessions
  std::unique_ptr<Workload> w = MakeWorkload(cfg.workload);
  const Market market = GenerateMarket(w->Sizes(), StreamSeed(cfg.seed, 0));
  const DeploymentSpec spec = w->Deploy(cfg);

  // Set-up is repeated and its median reported; the last one is measured.
  std::vector<double> setup_s;
  for (int i = 0, n = cfg.trace ? 1 : 7; i < n; ++i) {
    d.reset();
    int64_t t0 = NowNs();
    auto created = Deployment::Create(spec, market);
    if (!created.ok()) {
      report.error = "set-up failed: " + created.status().ToString();
      return report;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    d = std::move(created).value();
  }
  w->Start(market, d.get(), cfg.seed, cfg.nproc);
  Tally tally;
  GraphDatabase& db = d->market();

  // Untraced measurement: the whole window (end-to-end run), or the first
  // half of a traced run, whose difference to the traced half is the
  // tracing overhead.
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  d->wal().Reset();
  SliceMeter slices;
  slices.Start(NowNs());
  ClientStats untraced = w->Window(untraced_s, &tally, &slices);
  slices.Finish(NowNs());
  const uint64_t appended = d->wal().append.bytes + d->wal().replace.bytes;

  ClientStats traced;
  double cpu_s = 0;
  const double traced_s = cfg.seconds - untraced_s;
  if (cfg.trace) {
    d->wal().Reset();
    d->repl().Reset();
    db.plan_cache().ResetStats();
    trace::Reset();
    trace::Enable(true);
    double cpu0 = ProcessCpuSeconds();
    SliceMeter unused;
    unused.Start(NowNs());
    traced = w->Window(traced_s, &tally, &unused);
    cpu_s = ProcessCpuSeconds() - cpu0;
    trace::Enable(false);
  }

  JsonObject meta;
  meta.Str("workload", cfg.workload)
      .Int("seed", static_cast<int64_t>(cfg.seed))
      .Num("seconds", cfg.seconds)
      .Raw("sizes", JsonObject()
                        .Int("users", market.spec.users)
                        .Int("products", market.spec.products)
                        .Int("orders", market.spec.orders)
                        .Done())
      .Int("threads", w->Threads(cfg.nproc))
      .Str("flush_policy", spec.wal_path.empty()
                               ? "in-memory log (MemoryLogFile), no fsync"
                               : "fsync per commit (kEveryCommit)")
      .Str("wal_filesystem",
           spec.wal_path.empty() ? "memory" : FilesystemType(cfg.run_dir))
      .Int("auto_checkpoint_bytes",
           static_cast<int64_t>(spec.auto_checkpoint_bytes))
      .Int("wal_replaces", static_cast<int64_t>(d->wal().replace.calls))
      .Str("follower_link",
           spec.link == FollowerLink::kSocket ? "unix socket" : "inline");

  if (!cfg.trace) {
    ClientStats& s = untraced;
    std::vector<double> slice_ops_s, slice_steal;
    for (const SliceMeter::Slice& q : slices.slices()) {
      const auto done = std::count_if(
          s.done_ns.begin(), s.done_ns.end(),
          [&](int64_t t) { return t >= q.begin_ns && t < q.end_ns; });
      slice_ops_s.push_back(done / ((q.end_ns - q.begin_ns) / 1e9));
      slice_steal.push_back(static_cast<double>(q.steal_ticks));
    }
    LatencySummary read = s.read.Summarize(kBlock),
                   write = s.write.Summarize(kBlock),
                   snap = s.snapshot.Summarize(kBlock),
                   lag = s.lag.Summarize(kBlock);
    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_ops_s", Median(slice_ops_s), "1/s"},
        {"read_p50_us", read.p50_us, "us"},
        {"read_tail_us", read.tail_us, "us"},
        {"write_p50_us", write.p50_us, "us"},
        {"write_tail_us", write.tail_us, "us"},
        {"snapshot_read_p50_us", snap.p50_us, "us"},
        {"snapshot_read_tail_us", snap.tail_us, "us"},
        {"repl_lag_p50_us", lag.p50_us, "us"},
        {"repl_lag_tail_us", lag.tail_us, "us"},
        {"log_bytes_per_update", Ratio(appended, s.updates), "bytes"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    meta.Raw("read", SummaryJson(read))
        .Raw("write", SummaryJson(write))
        .Raw("snapshot_read", SummaryJson(snap))
        .Raw("repl_lag", SummaryJson(lag))
        .Int("updates", static_cast<int64_t>(s.updates))
        .Num("run_throughput_ops_s", s.ops / untraced_s)
        .Raw("slice_throughput_ops_s", JsonList(slice_ops_s))
        .Raw("slice_steal_ticks", JsonList(slice_steal));
    meta.Raw("setup_runs_s", JsonList(setup_s))
        .Raw("setup_phases_s", JsonObject()
                                   .Num("load", d->phases().load_s)
                                   .Num("durable", d->phases().durable_s)
                                   .Num("follower", d->phases().follower_s)
                                   .Done());
  } else {
    ClientStats& s = traced;
    const cypher::PlanCacheStats pc = db.plan_cache().Stats();
    std::vector<trace::LayerTotals> totals = trace::Totals();
    auto layer = [&](const char* name) {
      for (const trace::LayerTotals& t : totals) {
        if (t.name == name) return t;
      }
      return trace::LayerTotals{};
    };
    auto mean_self = [&](const char* name) {
      trace::LayerTotals t = layer(name);
      return Ratio(t.self_us, t.count);
    };
    auto mean_total = [&](const char* name) {
      trace::LayerTotals t = layer(name);
      return Ratio(t.total_us, t.count);
    };

    double anchor_session = 0, session_slowdown = 0;
    if (GraphDatabase* session_db = w->SessionDb()) {
      auto session = session_db->BeginReadSession();
      if (session.ok()) {
        anchor_session = IndexAnchorRatio(s.reads, [&](const Op& op) {
          return session->Execute("EXPLAIN " + op.text, op.params);
        });
      }
      session_slowdown =
          SessionPointReadSlowdown(db, *session_db, market, cfg.seed);
    }
    const double anchor_leader = IndexAnchorRatio(s.reads, [&](const Op& op) {
      return db.Execute("EXPLAIN " + op.text, op.params);
    });
    auto [speedup, speedup_agg] = ParallelSpeedup(db, s.reads, cfg.nproc);

    const WalCounters& wal = d->wal();
    const ReplCounters& rc = d->repl();
    const uint64_t lookups = pc.hits + pc.misses;
    const uint64_t polls = rc.polls, empty = rc.empty_polls;
    const double thr_untraced = untraced.ops / untraced_s;
    const double thr_traced = s.ops / traced_s;
    auto us = [](const IoCounter& c) { return Ratio(c.ns / 1e3, c.calls); };
    report.metrics = {
        {"parser.parse_us", MeanParseUs(s.texts), "us"},
        {"normalize.parametrize_us", MeanParametrizeUs(s.texts), "us"},
        {"plan_cache.hit_ratio", Ratio(pc.hits, lookups), "ratio"},
        {"plan_cache.raw_hit_ratio", Ratio(pc.raw_hits, lookups), "ratio"},
        {"plan_cache.evictions", static_cast<double>(pc.evictions), "count"},
        {"session_cache.hit_ratio",
         Ratio(s.session_hits, s.session_hits + s.session_misses), "ratio"},
        {"cypher.execute_self_us.read", mean_self("cypher.execute.read"), "us"},
        {"cypher.execute_self_us.write", mean_self("cypher.execute.write"),
         "us"},
        {"cypher.session_refresh_us", mean_total("cypher.session_refresh"),
         "us"},
        {"cypher.session_execute_us", mean_total("cypher.session_execute"),
         "us"},
        {"match.rows_examined_per_result", RowsExaminedPerResult(db, s.reads),
         "ratio"},
        {"match.index_anchor_ratio.leader", anchor_leader, "ratio"},
        {"match.index_anchor_ratio.session_explain", anchor_session, "ratio"},
        {"match.session_point_read_slowdown", session_slowdown, "ratio"},
        {"exec.parallel_speedup", speedup, "ratio"},
        {"exec.parallel_speedup.aggregate", speedup_agg, "ratio"},
        {"exec.parallel_cpu_util",
         Ratio(cpu_s, traced_s * w->Threads(cfg.nproc)), "ratio"},
        {"wal.append.count", static_cast<double>(wal.append.calls), "count"},
        {"wal.append.bytes", static_cast<double>(wal.append.bytes), "bytes"},
        {"wal.append_us", us(wal.append), "us"},
        {"wal.sync.count", static_cast<double>(wal.sync.calls), "count"},
        {"wal.sync_us", us(wal.sync), "us"},
        {"wal.syncs_per_commit", Ratio(wal.sync.calls, s.write_stmts), "ratio"},
        {"wal.replace.count", static_cast<double>(wal.replace.calls), "count"},
        {"wal.replace.bytes", static_cast<double>(wal.replace.bytes), "bytes"},
        {"wal.replace_us", us(wal.replace), "us"},
        {"wal.read_all.count", static_cast<double>(wal.read_all.calls),
         "count"},
        {"wal.read_all.bytes", static_cast<double>(wal.read_all.bytes),
         "bytes"},
        {"wal.read_all_us", us(wal.read_all), "us"},
        {"repl.poll.count", static_cast<double>(polls), "count"},
        {"repl.poll_empty_ratio", Ratio(empty, polls), "ratio"},
        {"repl.apply_us", Ratio(rc.apply_ns / 1e3, polls - empty), "us"},
        {"repl.frames", static_cast<double>(rc.frames), "count"},
        {"repl.frame_bytes", static_cast<double>(rc.frame_bytes), "bytes"},
        {"repl.resends", static_cast<double>(rc.resends), "count"},
        {"repl.reconnects", static_cast<double>(d->Reconnects()), "count"},
        {"repl.leader_log_bytes",
         static_cast<double>(d->leader().replication_status().log_bytes),
         "bytes"},
        {"process.cpu_s_per_op", Ratio(cpu_s, s.ops), "s"},
        {"trace.overhead_pct", (Ratio(thr_untraced, thr_traced) - 1) * 100, "%"},
        {"trace.spans", static_cast<double>(trace::SpanCount()), "count"},
    };
    const std::string nesting = trace::CheckNesting();
    Require(nesting.empty(), "trace nesting: " + nesting, &tally);
    if (!cfg.trace_out.empty() && !trace::WriteSpans(cfg.trace_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   cfg.trace_out.c_str());
    }
    JsonObject layers;
    for (const trace::LayerTotals& t : totals) {
      layers.Raw(t.name, JsonObject()
                             .Int("count", static_cast<int64_t>(t.count))
                             .Num("total_us", t.total_us)
                             .Num("self_us", t.self_us)
                             .Done());
    }
    meta.Raw("spans", layers.Done())
        .Num("throughput_untraced_ops_s", thr_untraced)
        .Num("throughput_traced_ops_s", thr_traced)
        .Int("reads_sampled", static_cast<int64_t>(s.reads.size()))
        .Int("texts_sampled", static_cast<int64_t>(s.texts.size()));
  }
  // After the metrics: recovery reads the log through the decorator.
  w->FinalChecks(&tally);
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.correct = tally.failed == 0;
  report.meta = meta.Done();
  return report;
}

}  // namespace perfbench
