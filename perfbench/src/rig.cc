#include "rig.h"

#include <filesystem>

#include "graph/isomorphism.h"
#include "graph/serialize.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "trace.h"

namespace perfbench {

using cypher::Result;
using cypher::Status;
using cypher::Value;
using cypher::ValueList;
using cypher::ValueMap;
namespace repl = cypher::replication;

// ---- Decorators --------------------------------------------------------------

Status TimingLogFile::Append(const void* data, size_t size) {
  trace::Span span("wal.append");
  int64_t t0 = NowNs();
  Status st = base_->Append(data, size);
  counters_->append.Add(size, NowNs() - t0);
  return st;
}

Status TimingLogFile::Sync() {
  trace::Span span("wal.sync");
  int64_t t0 = NowNs();
  Status st = base_->Sync();
  counters_->sync.Add(0, NowNs() - t0);
  return st;
}

Status TimingLogFile::Replace(const void* data, size_t size) {
  trace::Span span("wal.replace");
  int64_t t0 = NowNs();
  Status st = base_->Replace(data, size);
  counters_->replace.Add(size, NowNs() - t0);
  return st;
}

cypher::Result<std::string> TimingLogFile::ReadAll() {
  trace::Span span("wal.read_all");
  int64_t t0 = NowNs();
  auto bytes = base_->ReadAll();
  counters_->read_all.Add(bytes.ok() ? bytes->size() : 0, NowNs() - t0);
  return bytes;
}

bool CountingTransport::Receive(repl::SegmentFrame* out) {
  if (!base_->Receive(out)) return false;
  counters_->frames.fetch_add(1, std::memory_order_relaxed);
  counters_->frame_bytes.fetch_add(out->payload.size(),
                                   std::memory_order_relaxed);
  return true;
}

Status CountingTransport::SendControl(repl::ControlFrame frame) {
  if (frame.type == repl::ControlType::kResend) {
    counters_->resends.fetch_add(1, std::memory_order_relaxed);
  }
  return base_->SendControl(frame);
}

// ---- Market ------------------------------------------------------------------

std::string UserName(int64_t id) {
  std::string name = std::to_string(id);
  name.insert(name.begin(), 'u');
  return name;
}

Market GenerateMarket(const MarketSpec& spec, uint64_t seed) {
  Market m;
  m.spec = spec;
  Rng rng(seed);
  for (int64_t i = 0; i < spec.users; ++i) {
    m.user_age.push_back(static_cast<int>(rng.Range(18, 79)));
    m.user_city.push_back(static_cast<int>(rng.Range(0, spec.cities - 1)));
  }
  for (int64_t i = 0; i < spec.products; ++i) {
    m.product_category.push_back(
        static_cast<int>(rng.Range(0, spec.categories - 1)));
    m.product_price.push_back(static_cast<int>(rng.Range(1, 1000)));
  }
  for (int64_t i = 1; i <= spec.orders; ++i) {
    m.orders.push_back({i, rng.Range(1, spec.users),
                        rng.Range(1, spec.products), rng.Range(1, 5)});
  }
  return m;
}

namespace {

Value Row(std::initializer_list<std::pair<const char*, Value>> fields) {
  ValueMap map;
  for (const auto& [k, v] : fields) map.emplace(k, v);
  return Value::Map(std::move(map));
}

Status RunBatched(cypher::GraphDatabase* db, const std::string& stmt,
                  ValueList rows) {
  constexpr size_t kChunk = 20000;
  for (size_t i = 0; i < rows.size(); i += kChunk) {
    size_t end = std::min(rows.size(), i + kChunk);
    ValueList chunk(std::make_move_iterator(rows.begin() + i),
                    std::make_move_iterator(rows.begin() + end));
    auto r = db->Execute(stmt, {{"rows", Value::List(std::move(chunk))}});
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

}  // namespace

Status LoadMarket(cypher::GraphDatabase* db, const Market& market) {
  CYPHER_RETURN_NOT_OK(db->Run("CREATE INDEX ON :User(id)"));
  CYPHER_RETURN_NOT_OK(db->Run("CREATE INDEX ON :Product(id)"));
  ValueList users;
  for (size_t i = 0; i < market.user_age.size(); ++i) {
    int64_t id = static_cast<int64_t>(i) + 1;
    users.push_back(Row({{"id", Value::Int(id)},
                         {"name", Value::String(UserName(id))},
                         {"age", Value::Int(market.user_age[i])},
                         {"city", Value::Int(market.user_city[i])}}));
  }
  CYPHER_RETURN_NOT_OK(RunBatched(
      db,
      "UNWIND $rows AS r CREATE (:User {id: r.id, name: r.name, age: r.age, "
      "city: r.city})",
      std::move(users)));
  ValueList products;
  for (size_t i = 0; i < market.product_category.size(); ++i) {
    products.push_back(
        Row({{"id", Value::Int(static_cast<int64_t>(i) + 1)},
             {"category", Value::Int(market.product_category[i])},
             {"price", Value::Int(market.product_price[i])}}));
  }
  CYPHER_RETURN_NOT_OK(RunBatched(
      db,
      "UNWIND $rows AS r CREATE (:Product {id: r.id, category: r.category, "
      "price: r.price})",
      std::move(products)));
  ValueList orders;
  for (const Market::Order& o : market.orders) {
    orders.push_back(Row({{"oid", Value::Int(o.oid)},
                          {"u", Value::Int(o.user)},
                          {"p", Value::Int(o.product)},
                          {"qty", Value::Int(o.qty)}}));
  }
  return RunBatched(db,
                    "UNWIND $rows AS r MATCH (u:User {id: r.u}), "
                    "(p:Product {id: r.p}) CREATE (u)-[:ORDERED {oid: r.oid, "
                    "qty: r.qty}]->(p)",
                    std::move(orders));
}

// ---- Deployment --------------------------------------------------------------

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const DeploymentSpec& spec, const Market& market) {
  auto d = std::make_unique<Deployment>();
  d->spec_ = spec;
  cypher::EvalOptions options;
  options.parallel_workers = spec.parallel_workers;
  int64_t t0 = NowNs();
  d->leader_ = std::make_unique<cypher::GraphDatabase>(options);
  if (spec.separate_market) {
    d->market_db_ = std::make_unique<cypher::GraphDatabase>(options);
  }
  CYPHER_RETURN_NOT_OK(LoadMarket(&d->market(), market));
  int64_t t1 = NowNs();
  d->phases_.load_s = (t1 - t0) / 1e9;

  std::error_code ec;
  std::unique_ptr<cypher::storage::LogFile> file;
  if (spec.wal_path.empty()) {
    file = std::make_unique<cypher::storage::MemoryLogFile>();
  } else {
    std::filesystem::remove(spec.wal_path, ec);
    auto posix = cypher::storage::OpenPosixLogFile(spec.wal_path);
    if (!posix.ok()) return posix.status();
    file = std::move(posix).value();
  }
  cypher::DurabilityOptions durability;
  durability.sync_mode = cypher::DurabilityOptions::SyncMode::kEveryCommit;
  durability.auto_checkpoint_bytes = spec.auto_checkpoint_bytes;
  CYPHER_RETURN_NOT_OK(d->leader_->OpenDurable(
      std::make_unique<TimingLogFile>(std::move(file), &d->wal_), durability));
  if (spec.leader_mvcc) CYPHER_RETURN_NOT_OK(d->leader_->EnableMvcc());
  int64_t t2 = NowNs();
  d->phases_.durable_s = (t2 - t1) / 1e9;

  if (spec.link == FollowerLink::kInline) {
    auto queue = std::make_shared<repl::InProcessTransport>();
    d->follower_ = std::make_unique<repl::Replica>(
        std::make_shared<CountingTransport>(queue, &d->repl_));
    auto id = d->leader_->AttachFollower(queue);
    if (!id.ok()) return id.status();
    if (!d->ApplyInlineUntil(d->LeaderLsn())) {
      return Status::InternalError("inline follower did not bootstrap");
    }
    d->phases_.follower_s = (NowNs() - t2) / 1e9;
    return d;
  }

  std::filesystem::remove(spec.socket_path, ec);
  d->server_ = std::make_unique<repl::SocketReplicationServer>();
  CYPHER_RETURN_NOT_OK(d->server_->Start(d->leader_.get(),
                                         repl::Endpoint::Unix(spec.socket_path),
                                         cypher::ReplicationOptions{},
                                         repl::SocketOptions{}));
  d->socket_ = std::make_shared<repl::SocketTransport>(d->server_->endpoint(),
                                                       repl::SocketOptions{});
  d->follower_ = std::make_unique<repl::Replica>(
      std::make_shared<CountingTransport>(d->socket_, &d->repl_));
  repl::Replica* follower = d->follower_.get();
  d->socket_->SetHelloSource([follower] {
    return std::make_pair(follower->token(), follower->applied_lsn());
  });
  int64_t deadline = NowNs() + 60'000'000'000;
  while (follower->applied_lsn() < d->LeaderLsn() && NowNs() < deadline) {
    d->socket_->Pump();
    if (!d->PollFollowerOnce()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (d->follower_error_) break;
  }
  if (follower->applied_lsn() < d->LeaderLsn()) {
    return Status::InternalError("socket follower did not bootstrap");
  }
  d->phases_.follower_s = (NowNs() - t2) / 1e9;
  return d;
}

Deployment::~Deployment() {
  stop_ = true;
  if (follower_thread_.joinable()) follower_thread_.join();
  if (socket_) socket_->Close();
  if (server_) server_->Stop();
}

uint64_t Deployment::LeaderLsn() {
  return leader_->wal_writer()->appended_lsn();
}

bool Deployment::PollFollowerOnce() {
  int64_t t0 = NowNs();
  auto applied = follower_->PollOnce();
  int64_t elapsed = NowNs() - t0;
  repl_.polls.fetch_add(1, std::memory_order_relaxed);
  if (!applied.ok()) {
    follower_error_ = true;
    return false;
  }
  if (*applied == 0) {
    repl_.empty_polls.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  repl_.apply_ns.fetch_add(elapsed, std::memory_order_relaxed);
  return true;
}

bool Deployment::ApplyInlineUntil(uint64_t lsn) {
  trace::Span span("repl.inline_apply");
  int64_t deadline = NowNs() + 30'000'000'000;
  while (follower_->applied_lsn() < lsn) {
    if (!PollFollowerOnce()) {
      if (follower_error_ || NowNs() > deadline) return false;
      // Nothing queued yet: ship whatever the leader has made durable.
      if (!leader_->PumpReplication().ok()) return false;
    }
  }
  // Deliver the follower's ack now, as the socket server's loop would, so
  // the leader's retention pin (which gates auto-checkpoint) is at the head
  // before the next statement.
  return leader_->PumpReplication().ok();
}

void Deployment::ExpectApplied(uint64_t lsn, int64_t committed_ns) {
  std::lock_guard<std::mutex> lock(lag_mu_);
  pending_.emplace_back(lsn, committed_ns);
}

Samples Deployment::TakeLagSamples() {
  std::lock_guard<std::mutex> lock(lag_mu_);
  Samples out = std::move(lag_);
  lag_ = Samples();
  return out;
}

void Deployment::StartFollowerThread() {
  stop_ = false;
  follower_thread_ = std::thread([this] { FollowerLoop(); });
}

void Deployment::FollowerLoop() {
  while (!stop_ && !follower_error_) {
    socket_->Pump();
    bool applied = PollFollowerOnce();
    uint64_t at = follower_->applied_lsn();
    int64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lock(lag_mu_);
      while (!pending_.empty() && pending_.front().first <= at) {
        lag_.Add((now - pending_.front().second) / 1e3,
                 pending_.front().second);
        pending_.pop_front();
      }
    }
    // Idle polls sleep briefly rather than spin: the server ships on a 2 ms
    // tick, so 50 us adds little lag and leaves the core to the clients.
    if (!applied) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Deployment::StopFollowerThread() {
  int64_t deadline = NowNs() + 30'000'000'000;
  while (follower_->applied_lsn() < LeaderLsn() && NowNs() < deadline &&
         !follower_error_) {
    std::this_thread::yield();
  }
  bool caught_up = follower_->applied_lsn() >= LeaderLsn();
  stop_ = true;
  if (follower_thread_.joinable()) follower_thread_.join();
  {
    std::lock_guard<std::mutex> lock(lag_mu_);
    pending_.clear();
  }
  return caught_up && !follower_error_;
}

uint64_t Deployment::Reconnects() const {
  return socket_ ? socket_->link().reconnects : 0;
}

bool FollowerMatchesLeader(Deployment* d, std::string* why) {
  if (d->follower().CanonicalDump() ==
      cypher::DumpGraphCanonical(d->leader().graph())) {
    return true;
  }
  *why = "follower canonical dump differs from the leader's";
  return false;
}

bool RecoveryMatchesLeader(Deployment* d, std::string* why) {
  auto bytes = d->leader().wal_writer()->file()->ReadAll();
  if (!bytes.ok()) {
    *why = "reading the WAL failed: " + bytes.status().ToString();
    return false;
  }
  auto recovered = cypher::storage::RecoverGraph(*bytes);
  if (!recovered.ok()) {
    *why = "WAL recovery failed: " + recovered.status().ToString();
    return false;
  }
  if (recovered->torn_tail) {
    *why = "WAL recovery found a torn tail after a clean run";
    return false;
  }
  const cypher::PropertyGraph& leader = d->leader().graph();
  if (cypher::DumpGraphCanonical(recovered->graph) ==
      cypher::DumpGraphCanonical(leader)) {
    return true;
  }
  return cypher::AreIsomorphic(recovered->graph, leader, why);
}

}  // namespace perfbench
