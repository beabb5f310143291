// The deployment every workload runs against: a durable leader on a posix
// write-ahead log (seen through a timing LogFile decorator) and one
// follower Replica (seen through a counting Transport decorator), plus the
// benchmark-side generator of the marketplace graph they start from.
#ifndef PERFBENCH_RIG_H_
#define PERFBENCH_RIG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cypher/database.h"
#include "harness.h"
#include "replication/replica.h"
#include "replication/socket_transport.h"
#include "replication/transport.h"
#include "storage/log_file.h"

namespace perfbench {

// ---- Decorators over the engine's pluggable interfaces --------------------

/// Byte and call counts plus busy time of one LogFile operation kind.
struct IoCounter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<int64_t> ns{0};
  void Add(uint64_t b, int64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(b, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
  void Reset() {
    calls = 0;
    bytes = 0;
    ns = 0;
  }
};

struct WalCounters {
  IoCounter append, sync, replace, read_all;
  void Reset() {
    append.Reset();
    sync.Reset();
    replace.Reset();
    read_all.Reset();
  }
};

/// Forwards every call to the posix log and times Append, Sync, Replace and
/// ReadAll, each also as a trace span (nested under the Execute span that
/// caused it, since the WAL runs on the committing thread). ReadAll is how
/// the log shipper reads durable bytes for followers.
class TimingLogFile : public cypher::storage::LogFile {
 public:
  TimingLogFile(std::unique_ptr<cypher::storage::LogFile> base,
                WalCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  cypher::Status Append(const void* data, size_t size) override;
  cypher::Status Sync() override;
  cypher::Status Truncate(uint64_t new_size) override {
    return base_->Truncate(new_size);
  }
  cypher::Status Replace(const void* data, size_t size) override;
  cypher::Result<std::string> ReadAll() override;
  uint64_t size() const override { return base_->size(); }

 private:
  std::unique_ptr<cypher::storage::LogFile> base_;
  WalCounters* counters_;
};

struct ReplCounters {
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> frame_bytes{0};
  std::atomic<uint64_t> resends{0};
  std::atomic<uint64_t> polls{0};
  std::atomic<uint64_t> empty_polls{0};
  std::atomic<int64_t> apply_ns{0};  // busy time of polls that applied
  void Reset() {
    frames = 0;
    frame_bytes = 0;
    resends = 0;
    polls = 0;
    empty_polls = 0;
    apply_ns = 0;
  }
};

/// Follower-side Transport decorator: counts received frames and their
/// payload bytes, and resend requests sent back to the leader.
class CountingTransport : public cypher::replication::Transport {
 public:
  CountingTransport(std::shared_ptr<cypher::replication::Transport> base,
                    ReplCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  cypher::Status Send(cypher::replication::SegmentFrame frame) override {
    return base_->Send(std::move(frame));
  }
  bool PollControl(cypher::replication::ControlFrame* out) override {
    return base_->PollControl(out);
  }
  bool Receive(cypher::replication::SegmentFrame* out) override;
  cypher::Status SendControl(cypher::replication::ControlFrame frame) override;
  cypher::replication::LinkStatus link() const override {
    return base_->link();
  }

 private:
  std::shared_ptr<cypher::replication::Transport> base_;
  ReplCounters* counters_;
};

// ---- Generated marketplace -------------------------------------------------

struct MarketSpec {
  int64_t users = 0;
  int64_t products = 0;
  int64_t orders = 0;
  int cities = 20;
  int categories = 16;
};

/// The generator's copy of the graph it loads, so checks know the answers.
struct Market {
  MarketSpec spec;
  std::vector<int> user_age, user_city;          // index id - 1
  std::vector<int> product_category, product_price;
  struct Order {
    int64_t oid, user, product, qty;
  };
  std::vector<Order> orders;
};

Market GenerateMarket(const MarketSpec& spec, uint64_t seed);

/// The `name` the market gives user `id`.
std::string UserName(int64_t id);

/// Creates the :User(id)/:Product(id) indexes and loads `market` through
/// UNWIND $rows statements.
cypher::Status LoadMarket(cypher::GraphDatabase* db, const Market& market);

// ---- Leader + follower ------------------------------------------------------

enum class FollowerLink {
  kInline,  // in-process queue, applied by the writer thread after commits
  kSocket,  // Unix-domain socket server + a follower thread
};

struct DeploymentSpec {
  std::string wal_path;  // empty: an in-memory log (no fsync, no disk)
  std::string socket_path;  // kSocket only
  bool leader_mvcc = false;
  size_t parallel_workers = 0;
  uint64_t auto_checkpoint_bytes = 0;
  FollowerLink link = FollowerLink::kInline;
  // Loads the market into a database of its own, with no log, follower or
  // MVCC; the leader then starts empty and holds only the workload's writes.
  bool separate_market = false;
};

/// One leader and its follower. Owned by a unique_ptr: the socket server
/// and the follower thread hold its address.
class Deployment {
 public:
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Loads the market, opens the leader's WAL, enables MVCC if asked,
  /// attaches and bootstraps the follower.
  static cypher::Result<std::unique_ptr<Deployment>> Create(
      const DeploymentSpec& spec, const Market& market);

  /// Wall time of each set-up phase of Create.
  struct Phases {
    double load_s = 0;      // indexes + UNWIND loads
    double durable_s = 0;   // OpenDurable (+ EnableMvcc)
    double follower_s = 0;  // attach + bootstrap the follower
  };
  const Phases& phases() const { return phases_; }

  cypher::GraphDatabase& leader() { return *leader_; }
  /// The database holding the market: the leader unless
  /// spec.separate_market.
  cypher::GraphDatabase& market() {
    return market_db_ ? *market_db_ : *leader_;
  }
  cypher::replication::Replica& follower() { return *follower_; }
  WalCounters& wal() { return wal_; }
  ReplCounters& repl() { return repl_; }
  const DeploymentSpec& spec() const { return spec_; }

  /// The leader's log end after the caller's last commit (single-writer
  /// workloads: that commit's LSN).
  uint64_t LeaderLsn();

  /// Inline link: applies follower frames on the calling thread until the
  /// follower reaches `lsn`; returns false on timeout or apply error.
  bool ApplyInlineUntil(uint64_t lsn);

  /// Socket link: the follower thread records a lag sample (commit return
  /// to applied, stamped with the commit's return) for each LSN registered
  /// here.
  void ExpectApplied(uint64_t lsn, int64_t committed_ns);
  Samples TakeLagSamples();
  void StartFollowerThread();
  /// Stops the follower thread after it has caught up with the leader.
  bool StopFollowerThread();

  /// Follower reconnects seen by the link (socket), 0 inline.
  uint64_t Reconnects() const;

 private:
  bool PollFollowerOnce();
  void FollowerLoop();

  DeploymentSpec spec_;
  Phases phases_;
  WalCounters wal_;
  ReplCounters repl_;
  std::unique_ptr<cypher::GraphDatabase> leader_;
  std::unique_ptr<cypher::GraphDatabase> market_db_;
  std::shared_ptr<cypher::replication::SocketTransport> socket_;
  std::unique_ptr<cypher::replication::SocketReplicationServer> server_;
  std::unique_ptr<cypher::replication::Replica> follower_;

  std::mutex lag_mu_;
  std::deque<std::pair<uint64_t, int64_t>> pending_;  // guarded by lag_mu_
  Samples lag_;                                       // guarded by lag_mu_
  std::atomic<bool> stop_{false};
  std::atomic<bool> follower_error_{false};
  std::thread follower_thread_;  // declared last: uses the members above
};

/// True when the follower's canonical dump equals the leader's.
bool FollowerMatchesLeader(Deployment* d, std::string* why);

/// Recovers a graph from the leader's log bytes and compares it with the
/// leader's graph (canonical dumps, then the isomorphism checker).
bool RecoveryMatchesLeader(Deployment* d, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H_
