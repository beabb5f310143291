// Generated operations. Every statement text and parameter the engine sees
// comes from a stream here, seeded from the run's --seed; the engine never
// generates its own inputs. Each op carries the answer the generator
// expects, so a wrong answer counts as a failure.
#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cypher/database.h"
#include "exec/interpreter.h"
#include "harness.h"
#include "rig.h"
#include "value/value.h"

namespace perfbench {

enum class OpClass { kRead, kWrite, kSnapshotRead };

/// What a correct execution returns. -1 leaves a field unchecked.
struct Expect {
  int64_t rows = -1;
  int64_t max_rows = -1;
  std::optional<cypher::Value> first;  // first cell of the first row
  std::optional<int64_t> sum_col1;     // sum of column 1 over all rows
  int64_t nodes_created = -1;
  int64_t rels_created = -1;
  int64_t rels_deleted = -1;
  int64_t props_set = -1;
};

struct Op {
  OpClass cls = OpClass::kRead;
  std::string kind;  // statement family, e.g. "point", "merge_same"
  std::string text;
  cypher::ValueMap params;
  Expect expect;
  int64_t rows_in = 0;  // input rows of an UNWIND batch (ingest updates)
};

/// "" when `result` meets `op.expect`, else what differs.
std::string CheckResult(const Op& op, const cypher::QueryResult& result);

/// Canonical text of an op (class, kind, statement, parameters,
/// expectations): equal streams serialize to equal bytes.
std::string SerializeOp(const Op& op);

// ---- oltp ----------------------------------------------------------------

/// Leader client: ~80% reads (point, 1-hop, 2-hop co-purchase), ~20%
/// writes (SET, MATCH..CREATE of an order, DELETE of the order the last
/// create added, MERGE SAME), keys from a Zipf distribution over user ids;
/// half of the point reads and SETs inline their literals instead of using
/// $params.
class OltpLeaderStream {
 public:
  OltpLeaderStream(const Market* market, const Zipf* zipf, uint64_t seed);
  Op Next();

 private:
  const Market* market_;
  const Zipf* zipf_;
  Rng rng_;
  int64_t next_oid_;
  int64_t next_value_ = 1;  // SET values: unique, so every SET changes one
  bool pending_delete_ = false;
  std::pair<int64_t, int64_t> created_;  // (user, oid) of the last create
};

/// Snapshot client: point and 1-hop reads for a ReadSession.
class OltpSnapshotStream {
 public:
  OltpSnapshotStream(const Zipf* zipf, uint64_t seed);
  Op Next();

 private:
  const Zipf* zipf_;
  Rng rng_;
};

// ---- analytics --------------------------------------------------------------

/// Count scans, group-by aggregations, top-k 2-hop joins and bounded
/// variable-length walks with generated filters, grouping keys and aliases,
/// so the stream holds far more statement shapes than the plan cache.
class AnalyticsStream {
 public:
  AnalyticsStream(const Market* market, uint64_t seed);
  Op Next();
  /// The write-back that stores query `seq`'s row count in a :Report node,
  /// and the replica read that checks it.
  static Op WriteBack(int64_t seq, int64_t value);
  static Op ReadBack(int64_t seq, int64_t value);

 private:
  Op CountUsers();
  Op CountProducts();
  Op GroupBy();
  Op TopK();
  Op Walk();
  std::string Alias();
  std::string Compare(const std::string& lhs, int64_t lit, const char** op);

  const Market* market_;
  Rng rng_;
};

// ---- ingest -----------------------------------------------------------------

/// 256-row UNWIND batches cycling MERGE SAME + CREATE (Example 5 shaped
/// (cid, pid, date) rows), path-shaped MERGE ALL, bulk SET, and the two
/// relationship DELETE batches that remove what the cycle created, so the
/// graph size stays stationary. Each batch is followed by a leader
/// read-back of one of its rows.
class IngestStream {
 public:
  IngestStream(const Market* market, uint64_t seed, int64_t batch_rows);
  /// The next batch and its read-back.
  std::pair<Op, Op> Next();

 private:
  std::pair<Op, Op> MergeOrders();
  std::pair<Op, Op> MergeViews();
  std::pair<Op, Op> SetLast();
  std::pair<Op, Op> DeleteOrders();
  std::pair<Op, Op> DeleteViews();
  std::vector<int64_t> DistinctUsers(int64_t hi);

  const Market* market_;
  Rng rng_;
  int64_t batch_rows_;
  int64_t step_ = 0;
  int64_t next_oid_;
  int64_t day_ = 0;
  std::set<int64_t> users_;  // user ids the graph holds
  struct Created {
    int64_t cid, pid, oid;
  };
  std::vector<Created> orders_, views_;  // created this cycle
};

/// Point read of a loaded user (ids 1..users always exist and carry the
/// generated name), with the id inlined or passed as $id.
Op UserPointRead(int64_t id, bool inline_literal);

struct OpOutcome {
  bool ok = false;
  int64_t end_ns = 0;  // when the engine call returned
  size_t rows = 0;
};

/// Executes `op` on `db` inside trace span `span`, checks the answer and,
/// on success, adds the call's latency to `into`. Counts the attempt, and
/// an error or a wrong answer as a failure, in `tally`.
OpOutcome RunLeaderOp(cypher::GraphDatabase& db, const Op& op,
                      const char* span, Samples* into, Tally* tally);

/// Refresh + Execute on a snapshot session, timed together; otherwise as
/// RunLeaderOp.
bool RunSessionOp(cypher::GraphDatabase::ReadSession& session, const Op& op,
                  Samples* into, Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
