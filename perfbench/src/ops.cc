#include "ops.h"

#include <algorithm>

#include "trace.h"

namespace perfbench {

using cypher::Value;
using cypher::ValueList;
using cypher::ValueMap;

namespace {

std::string S(int64_t v) { return std::to_string(v); }

const char* kCompareOps[] = {"=", "<>", "<", "<=", ">", ">="};

bool Compares(int64_t lhs, const char* op, int64_t rhs) {
  std::string o = op;
  if (o == "=") return lhs == rhs;
  if (o == "<>") return lhs != rhs;
  if (o == "<") return lhs < rhs;
  if (o == "<=") return lhs <= rhs;
  if (o == ">") return lhs > rhs;
  return lhs >= rhs;
}

Value Row(std::initializer_list<std::pair<const char*, Value>> fields) {
  ValueMap map;
  for (const auto& [k, v] : fields) map.emplace(k, v);
  return Value::Map(std::move(map));
}

}  // namespace

std::string CheckResult(const Op& op, const cypher::QueryResult& result) {
  const Expect& e = op.expect;
  const int64_t rows = static_cast<int64_t>(result.num_rows());
  if (e.rows >= 0 && rows != e.rows) {
    return op.kind + ": " + S(rows) + " rows, expected " + S(e.rows);
  }
  if (e.max_rows >= 0 && rows > e.max_rows) {
    return op.kind + ": " + S(rows) + " rows, expected at most " +
           S(e.max_rows);
  }
  if (e.first) {
    if (result.rows.empty() || result.rows[0].empty() ||
        result.rows[0][0].ToString() != e.first->ToString()) {
      return op.kind + ": first cell differs from " + e.first->ToString();
    }
  }
  if (e.sum_col1) {
    int64_t sum = 0;
    for (const auto& row : result.rows) {
      if (row.size() < 2 || !row[1].is_int()) return op.kind + ": bad column";
      sum += row[1].AsInt();
    }
    if (sum != *e.sum_col1) {
      return op.kind + ": column sum " + S(sum) + ", expected " +
             S(*e.sum_col1);
    }
  }
  const cypher::UpdateStats& st = result.stats;
  auto stat = [&](int64_t want, uint64_t got, const char* what) {
    return want >= 0 && static_cast<int64_t>(got) != want
               ? op.kind + ": " + what + " " + S(static_cast<int64_t>(got)) +
                     ", expected " + S(want)
               : std::string();
  };
  for (const std::string& err :
       {stat(e.nodes_created, st.nodes_created, "nodes created"),
        stat(e.rels_created, st.rels_created, "relationships created"),
        stat(e.rels_deleted, st.rels_deleted, "relationships deleted"),
        stat(e.props_set, st.properties_set, "properties set")}) {
    if (!err.empty()) return err;
  }
  return "";
}

std::string SerializeOp(const Op& op) {
  std::string out = S(static_cast<int>(op.cls)) + "|" + op.kind + "|" +
                    op.text + "|";
  for (const auto& [k, v] : op.params) out += k + "=" + v.ToString() + ";";
  const Expect& e = op.expect;
  out += "|" + S(e.rows) + "," + S(e.max_rows) + "," +
         (e.first ? e.first->ToString() : "-") + "," +
         (e.sum_col1 ? S(*e.sum_col1) : "-") + "," + S(e.nodes_created) +
         "," + S(e.rels_created) + "," + S(e.rels_deleted) + "," +
         S(e.props_set) + "|" + S(op.rows_in);
  return out;
}

OpOutcome RunLeaderOp(cypher::GraphDatabase& db, const Op& op, const char* span,
                      Samples* into, Tally* tally) {
  tally->attempted.fetch_add(1, std::memory_order_relaxed);
  int64_t t0 = NowNs();
  auto r = [&] {
    trace::Span s(span);
    return db.Execute(op.text, op.params);
  }();
  OpOutcome out;
  out.end_ns = NowNs();
  if (!r.ok()) {
    tally->Fail(op.kind + ": " + r.status().ToString());
    return out;
  }
  std::string why = CheckResult(op, *r);
  if (!why.empty()) {
    tally->Fail(why);
    return out;
  }
  into->Add((out.end_ns - t0) / 1e3, out.end_ns);
  out.ok = true;
  out.rows = r->num_rows();
  return out;
}

bool RunSessionOp(cypher::GraphDatabase::ReadSession& session, const Op& op,
                  Samples* into, Tally* tally) {
  tally->attempted.fetch_add(1, std::memory_order_relaxed);
  int64_t t0 = NowNs();
  {
    trace::Span s("cypher.session_refresh");
    session.Refresh();
  }
  auto r = [&] {
    trace::Span s("cypher.session_execute");
    return session.Execute(op.text, op.params);
  }();
  int64_t t1 = NowNs();
  if (!r.ok()) {
    tally->Fail(op.kind + " (session): " + r.status().ToString());
    return false;
  }
  std::string why = CheckResult(op, *r);
  if (!why.empty()) {
    tally->Fail(why + " (session)");
    return false;
  }
  into->Add((t1 - t0) / 1e3, t1);
  return true;
}

Op UserPointRead(int64_t id, bool inline_literal) {
  Op op;
  op.cls = OpClass::kRead;
  op.kind = "point";
  if (inline_literal) {
    op.text = "MATCH (u:User {id: " + S(id) +
              "}) RETURN u.name AS name, u.age AS age";
  } else {
    op.text = "MATCH (u:User {id: $id}) RETURN u.name AS name, u.age AS age";
    op.params["id"] = Value::Int(id);
  }
  op.expect.rows = 1;
  op.expect.first = Value::String(UserName(id));
  return op;
}

// ---- oltp ----------------------------------------------------------------

OltpLeaderStream::OltpLeaderStream(const Market* market, const Zipf* zipf,
                                   uint64_t seed)
    : market_(market),
      zipf_(zipf),
      rng_(seed),
      next_oid_(market->spec.orders + 1) {}

Op OltpLeaderStream::Next() {
  const int64_t id = zipf_->Sample(&rng_);
  const int kind = static_cast<int>(rng_.Range(0, 99));
  if (rng_.Percent(80)) {
    if (kind < 40) return UserPointRead(id, rng_.Percent(50));
    Op op;
    op.params["id"] = Value::Int(id);
    if (kind < 75) {
      op.kind = "hop1";
      op.text =
          "MATCH (u:User {id: $id})-[:ORDERED]->(p:Product) RETURN p.id AS "
          "pid, p.price AS price ORDER BY pid LIMIT 20";
      op.expect.max_rows = 20;
    } else {
      op.kind = "hop2";
      op.text =
          "MATCH (u:User {id: $id})-[:ORDERED]->(:Product)<-[:ORDERED]-(o:"
          "User) WHERE o.id <> $id RETURN o.id AS other, count(*) AS c ORDER "
          "BY c DESC, other LIMIT 10";
      op.expect.max_rows = 10;
    }
    return op;
  }
  Op op;
  op.cls = OpClass::kWrite;
  const int64_t pid = rng_.Range(1, market_->spec.products);
  if (kind < 40) {
    op.kind = "set";
    const int64_t v = next_value_++;  // never the value already stored
    if (rng_.Percent(50)) {
      op.text = "MATCH (u:User {id: " + S(id) + "}) SET u.score = " + S(v);
    } else {
      op.text = "MATCH (u:User {id: $id}) SET u.score = $v";
      op.params = {{"id", Value::Int(id)}, {"v", Value::Int(v)}};
    }
    op.expect.props_set = 1;
  } else if (kind < 90 && !pending_delete_) {
    op.kind = "create_order";
    op.text =
        "MATCH (u:User {id: $id}), (p:Product {id: $pid}) CREATE "
        "(u)-[:ORDERED {oid: $oid, qty: $qty}]->(p)";
    created_ = {id, next_oid_++};
    op.params = {{"id", Value::Int(id)},
                 {"pid", Value::Int(pid)},
                 {"oid", Value::Int(created_.second)},
                 {"qty", Value::Int(rng_.Range(1, 5))}};
    op.expect.rels_created = 1;
    pending_delete_ = true;
  } else if (kind < 90) {
    // Deletes the order the previous create added, so every user's degree
    // stays at its loaded value and hot users' 2-hop reads cost the same
    // throughout the run.
    op.kind = "delete_order";
    op.text =
        "MATCH (u:User {id: $id})-[o:ORDERED {oid: $oid}]->(:Product) DELETE o";
    op.params = {{"id", Value::Int(created_.first)},
                 {"oid", Value::Int(created_.second)}};
    op.expect.rels_deleted = 1;
    pending_delete_ = false;
  } else {
    op.kind = "merge_same";
    op.text = "MERGE SAME (p:Product {id: $pid}) SET p.touched = $v";
    op.params = {{"pid", Value::Int(pid)}, {"v", Value::Int(next_value_++)}};
    op.expect.nodes_created = 0;
    op.expect.props_set = 1;
  }
  return op;
}

OltpSnapshotStream::OltpSnapshotStream(const Zipf* zipf, uint64_t seed)
    : zipf_(zipf), rng_(seed) {}

Op OltpSnapshotStream::Next() {
  const int64_t id = zipf_->Sample(&rng_);
  Op op;
  if (rng_.Percent(60)) {
    op = UserPointRead(id, rng_.Percent(50));
  } else {
    op.kind = "hop1";
    op.text =
        "MATCH (u:User {id: $id})-[:ORDERED]->(p:Product) RETURN p.id AS "
        "pid, p.price AS price ORDER BY pid LIMIT 20";
    op.params["id"] = Value::Int(id);
    op.expect.max_rows = 20;
  }
  op.cls = OpClass::kSnapshotRead;
  return op;
}

// ---- analytics --------------------------------------------------------------

AnalyticsStream::AnalyticsStream(const Market* market, uint64_t seed)
    : market_(market), rng_(seed) {}

std::string AnalyticsStream::Alias() { return "c" + S(rng_.Range(0, 63)); }

std::string AnalyticsStream::Compare(const std::string& lhs, int64_t lit,
                                     const char** op) {
  *op = kCompareOps[rng_.Range(0, 5)];
  return lhs + " " + *op + " " + S(lit);
}

Op AnalyticsStream::Next() {
  const int64_t pick = rng_.Range(0, 99);
  // Group-by holds the 30-80% band of the latency distribution, so the
  // median falls inside one statement family rather than on the step
  // between two.
  if (pick < 15) return Walk();
  if (pick < 23) return CountUsers();
  if (pick < 30) return CountProducts();
  if (pick < 80) return GroupBy();
  return TopK();
}

Op AnalyticsStream::CountUsers() {
  const bool by_age = rng_.Percent(50);
  const int64_t lit = by_age ? rng_.Range(18, 79)
                             : rng_.Range(0, market_->spec.cities - 1);
  const char* cmp = nullptr;
  Op op;
  op.kind = "count_users";
  op.text = "MATCH (u:User) WHERE " +
            Compare(by_age ? "u.age" : "u.city", lit, &cmp) +
            " RETURN count(*) AS " + Alias();
  const std::vector<int>& col = by_age ? market_->user_age : market_->user_city;
  op.expect.rows = 1;
  op.expect.first = Value::Int(std::count_if(
      col.begin(), col.end(), [&](int v) { return Compares(v, cmp, lit); }));
  return op;
}

Op AnalyticsStream::CountProducts() {
  const bool by_price = rng_.Percent(50);
  const int64_t lit = by_price ? rng_.Range(1, 1000)
                               : rng_.Range(0, market_->spec.categories - 1);
  const char* cmp = nullptr;
  Op op;
  op.kind = "count_products";
  op.text = "MATCH (p:Product) WHERE " +
            Compare(by_price ? "p.price" : "p.category", lit, &cmp) +
            " RETURN count(*) AS " + Alias();
  const std::vector<int>& col =
      by_price ? market_->product_price : market_->product_category;
  op.expect.rows = 1;
  op.expect.first = Value::Int(std::count_if(
      col.begin(), col.end(), [&](int v) { return Compares(v, cmp, lit); }));
  return op;
}

Op AnalyticsStream::GroupBy() {
  static const char* kAggs[] = {"count(*)", "sum(o.qty)", "max(p.price)",
                                "min(u.age)", "avg(o.qty)"};
  const bool by_price = rng_.Percent(50);
  const int64_t lit = by_price ? rng_.Range(1, 1000)
                               : rng_.Range(0, market_->spec.categories - 1);
  const bool key_city = rng_.Percent(50);
  const int agg = static_cast<int>(rng_.Range(0, 4));
  const char* cmp = nullptr;
  Op op;
  op.kind = "group_by";
  op.text = "MATCH (u:User)-[o:ORDERED]->(p:Product) WHERE " +
            Compare(by_price ? "p.price" : "p.category", lit, &cmp) +
            " RETURN " + (key_city ? "u.city" : "p.category") + " AS k, " +
            kAggs[agg] + " AS " + Alias() + " ORDER BY k";
  op.expect.max_rows = key_city ? market_->spec.cities : market_->spec.categories;
  if (agg == 0) {
    const std::vector<int>& col =
        by_price ? market_->product_price : market_->product_category;
    int64_t matching = 0;
    for (const Market::Order& o : market_->orders) {
      if (Compares(col[o.product - 1], cmp, lit)) ++matching;
    }
    op.expect.sum_col1 = matching;
  }
  return op;
}

Op AnalyticsStream::TopK() {
  const int64_t c = rng_.Range(0, market_->spec.categories - 1);
  const int64_t c2 = rng_.Range(0, market_->spec.categories - 1);
  const int64_t k = rng_.Range(5, 20);
  const std::string alias = Alias();
  const char* cmp = nullptr;
  Op op;
  op.kind = "top_k";
  op.text = "MATCH (p:Product)<-[:ORDERED]-(u:User)-[:ORDERED]->(q:Product) "
            "WHERE p.category = " + S(c) + " AND " +
            Compare("q.category", c2, &cmp) + " RETURN q.id AS qid, count(*) AS " +
            alias + " ORDER BY " + alias + " DESC, qid LIMIT " + S(k);
  op.expect.max_rows = k;
  return op;
}

Op AnalyticsStream::Walk() {
  const int64_t id = rng_.Range(1, market_->spec.users);
  Op op;
  op.kind = "walk";
  op.text = "MATCH (u:User {id: " + S(id) + "})-[:ORDERED*1.." +
            S(rng_.Range(2, 3)) + "]-(x) RETURN count(DISTINCT x) AS " +
            Alias();
  op.expect.rows = 1;
  return op;
}

Op AnalyticsStream::WriteBack(int64_t seq, int64_t value) {
  Op op;
  op.cls = OpClass::kWrite;
  op.kind = "write_back";
  op.text = "MERGE SAME (r:Report {key: $key}) SET r.value = $value";
  op.params = {{"key", Value::Int(seq % 32)}, {"value", Value::Int(value)}};
  op.expect.props_set = 1;
  return op;
}

Op AnalyticsStream::ReadBack(int64_t seq, int64_t value) {
  Op op;
  op.cls = OpClass::kSnapshotRead;
  op.kind = "read_back";
  op.text = "MATCH (r:Report {key: $key}) RETURN r.value AS v";
  op.params["key"] = Value::Int(seq % 32);
  op.expect.rows = 1;
  op.expect.first = Value::Int(value);
  return op;
}

// ---- ingest -----------------------------------------------------------------

IngestStream::IngestStream(const Market* market, uint64_t seed,
                           int64_t batch_rows)
    : market_(market),
      rng_(seed),
      batch_rows_(batch_rows),
      next_oid_(market->spec.orders + 1) {
  for (int64_t id = 1; id <= market->spec.users; ++id) users_.insert(id);
}

std::pair<Op, Op> IngestStream::Next() {
  switch (step_++ % 5) {
    case 0: return MergeOrders();
    case 1: return MergeViews();
    case 2: return SetLast();
    case 3: return DeleteOrders();
    default: return DeleteViews();
  }
}

std::vector<int64_t> IngestStream::DistinctUsers(int64_t hi) {
  std::set<int64_t> seen;
  std::vector<int64_t> out;
  while (static_cast<int64_t>(out.size()) < batch_rows_) {
    int64_t id = rng_.Range(1, hi);
    if (seen.insert(id).second) out.push_back(id);
  }
  return out;
}

std::pair<Op, Op> IngestStream::MergeOrders() {
  // Ids up to 10% past the loaded users: early batches create new users
  // (the MERGE SAME create path), later ones only match.
  const int64_t hi = market_->spec.users + market_->spec.users / 10;
  Op batch;
  batch.cls = OpClass::kWrite;
  batch.kind = "merge_same_orders";
  batch.text =
      "UNWIND $rows AS r MERGE SAME (u:User {id: r.cid}) MERGE SAME "
      "(p:Product {id: r.pid}) CREATE (u)-[:ORDERED {oid: r.oid, date: "
      "r.date}]->(p)";
  ValueList rows;
  int64_t new_users = 0;
  for (int64_t i = 0; i < batch_rows_; ++i) {
    Created c{rng_.Range(1, hi), rng_.Range(1, market_->spec.products),
              next_oid_++};
    if (users_.insert(c.cid).second) ++new_users;
    rows.push_back(Row({{"cid", Value::Int(c.cid)},
                        {"pid", Value::Int(c.pid)},
                        {"oid", Value::Int(c.oid)},
                        {"date", Value::Int(day_)}}));
    orders_.push_back(c);
  }
  ++day_;
  batch.params["rows"] = Value::List(std::move(rows));
  batch.rows_in = batch_rows_;
  batch.expect.nodes_created = new_users;
  batch.expect.rels_created = batch_rows_;

  const Created& probe = orders_[rng_.Range(0, batch_rows_ - 1)];
  Op check;
  check.kind = "read_back_order";
  check.text =
      "MATCH (:User {id: $cid})-[o:ORDERED {oid: $oid}]->(p:Product) RETURN "
      "p.id AS pid";
  check.params = {{"cid", Value::Int(probe.cid)},
                  {"oid", Value::Int(probe.oid)}};
  check.expect.rows = 1;
  check.expect.first = Value::Int(probe.pid);
  return {std::move(batch), std::move(check)};
}

std::pair<Op, Op> IngestStream::MergeViews() {
  std::set<std::pair<int64_t, int64_t>> pairs;
  ValueList rows;
  while (static_cast<int64_t>(views_.size()) < batch_rows_) {
    Created c{rng_.Range(1, market_->spec.users),
              rng_.Range(1, market_->spec.products), 0};
    if (!pairs.insert({c.cid, c.pid}).second) continue;
    rows.push_back(
        Row({{"cid", Value::Int(c.cid)}, {"pid", Value::Int(c.pid)}}));
    views_.push_back(c);
  }
  Op batch;
  batch.cls = OpClass::kWrite;
  batch.kind = "merge_all_views";
  batch.text =
      "UNWIND $rows AS r MATCH (u:User {id: r.cid}), (p:Product {id: r.pid}) "
      "MERGE ALL (u)-[:VIEWED]->(p)";
  batch.params["rows"] = Value::List(std::move(rows));
  batch.rows_in = batch_rows_;
  batch.expect.rels_created = batch_rows_;

  const Created& probe = views_[rng_.Range(0, batch_rows_ - 1)];
  Op check;
  check.kind = "read_back_view";
  check.text =
      "MATCH (:User {id: $cid})-[v:VIEWED]->(:Product {id: $pid}) RETURN "
      "count(v) AS c";
  check.params = {{"cid", Value::Int(probe.cid)},
                  {"pid", Value::Int(probe.pid)}};
  check.expect.first = Value::Int(1);
  return {std::move(batch), std::move(check)};
}

std::pair<Op, Op> IngestStream::SetLast() {
  std::vector<int64_t> ids = DistinctUsers(market_->spec.users);
  ValueList rows;
  for (int64_t id : ids) {
    rows.push_back(Row({{"cid", Value::Int(id)}, {"date", Value::Int(day_)}}));
  }
  Op batch;
  batch.cls = OpClass::kWrite;
  batch.kind = "bulk_set";
  batch.text = "UNWIND $rows AS r MATCH (u:User {id: r.cid}) SET u.last = r.date";
  batch.params["rows"] = Value::List(std::move(rows));
  batch.rows_in = batch_rows_;
  batch.expect.props_set = batch_rows_;

  Op check;
  check.kind = "read_back_set";
  check.text = "MATCH (u:User {id: $cid}) RETURN u.last AS last";
  check.params["cid"] = Value::Int(ids[rng_.Range(0, batch_rows_ - 1)]);
  check.expect.rows = 1;
  check.expect.first = Value::Int(day_);
  return {std::move(batch), std::move(check)};
}

std::pair<Op, Op> IngestStream::DeleteOrders() {
  ValueList rows;
  for (const Created& c : orders_) {
    rows.push_back(
        Row({{"cid", Value::Int(c.cid)}, {"oid", Value::Int(c.oid)}}));
  }
  Op batch;
  batch.cls = OpClass::kWrite;
  batch.kind = "delete_orders";
  batch.text =
      "UNWIND $rows AS r MATCH (:User {id: r.cid})-[o:ORDERED {oid: r.oid}]->"
      "() DELETE o";
  batch.params["rows"] = Value::List(std::move(rows));
  batch.rows_in = static_cast<int64_t>(orders_.size());
  batch.expect.rels_deleted = batch.rows_in;

  const Created probe = orders_[rng_.Range(0, batch.rows_in - 1)];
  orders_.clear();
  Op check;
  check.kind = "read_back_deleted_order";
  check.text =
      "MATCH (:User {id: $cid})-[o:ORDERED {oid: $oid}]->() RETURN count(o) "
      "AS c";
  check.params = {{"cid", Value::Int(probe.cid)},
                  {"oid", Value::Int(probe.oid)}};
  check.expect.first = Value::Int(0);
  return {std::move(batch), std::move(check)};
}

std::pair<Op, Op> IngestStream::DeleteViews() {
  ValueList rows;
  for (const Created& c : views_) {
    rows.push_back(
        Row({{"cid", Value::Int(c.cid)}, {"pid", Value::Int(c.pid)}}));
  }
  Op batch;
  batch.cls = OpClass::kWrite;
  batch.kind = "delete_views";
  batch.text =
      "UNWIND $rows AS r MATCH (:User {id: r.cid})-[v:VIEWED]->(:Product {id: "
      "r.pid}) DELETE v";
  batch.params["rows"] = Value::List(std::move(rows));
  batch.rows_in = static_cast<int64_t>(views_.size());
  batch.expect.rels_deleted = batch.rows_in;

  const Created probe = views_[rng_.Range(0, batch.rows_in - 1)];
  views_.clear();
  Op check;
  check.kind = "read_back_deleted_view";
  check.text =
      "MATCH (:User {id: $cid})-[v:VIEWED]->(:Product {id: $pid}) RETURN "
      "count(v) AS c";
  check.params = {{"cid", Value::Int(probe.cid)},
                  {"pid", Value::Int(probe.pid)}};
  check.expect.first = Value::Int(0);
  return {std::move(batch), std::move(check)};
}

}  // namespace perfbench
