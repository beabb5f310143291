#include "trace.h"

#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "harness.h"

namespace perfbench::trace {
namespace {

// Stored spans per thread; aggregates keep counting past the cap, so a long
// traced run bounds memory without losing totals.
constexpr size_t kMaxStoredSpansPerThread = 1 << 20;

struct Record {
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t request;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

struct Open {
  const char* name;
  uint64_t id;
  int64_t start_ns;
  int64_t child_ns;
};

struct Aggregate {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct ThreadState {
  int index = 0;
  uint64_t next_id = 1;
  uint64_t next_request = 1;
  uint64_t request = 0;
  std::vector<Open> stack;
  std::vector<Record> records;
  std::unordered_map<const char*, Aggregate> totals;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_mu

ThreadState* Local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadState>());
    state = g_threads.back().get();
    state->index = static_cast<int>(g_threads.size()) - 1;
  }
  return state;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& t : g_threads) {
    t->records.clear();
    t->totals.clear();
  }
}

Span::Span(const char* name) : active_(Enabled()) {
  if (!active_) return;
  ThreadState* t = Local();
  if (t->stack.empty()) {
    t->request = (static_cast<uint64_t>(t->index) << 40) | t->next_request++;
  }
  t->stack.push_back({name, t->next_id++, NowNs(), 0});
}

Span::~Span() {
  if (!active_) return;
  ThreadState* t = Local();
  int64_t end = NowNs();
  Open open = t->stack.back();
  t->stack.pop_back();
  int64_t duration = end - open.start_ns;
  uint64_t parent = 0;
  if (!t->stack.empty()) {
    t->stack.back().child_ns += duration;
    parent = t->stack.back().id;
  }
  Aggregate& agg = t->totals[open.name];
  ++agg.count;
  agg.total_ns += duration;
  agg.self_ns += duration - open.child_ns;
  if (t->records.size() < kMaxStoredSpansPerThread) {
    t->records.push_back(
        {open.id, parent, t->request, open.name, open.start_ns, end});
  }
}

std::vector<LayerTotals> Totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Aggregate> merged;
  for (auto& t : g_threads) {
    for (const auto& [name, agg] : t->totals) {
      Aggregate& m = merged[name];
      m.count += agg.count;
      m.total_ns += agg.total_ns;
      m.self_ns += agg.self_ns;
    }
  }
  std::vector<LayerTotals> out;
  for (const auto& [name, agg] : merged) {
    out.push_back({name, agg.count, agg.total_ns / 1e3, agg.self_ns / 1e3});
  }
  return out;
}

uint64_t SpanCount() {
  uint64_t n = 0;
  for (const LayerTotals& t : Totals()) n += t.count;
  return n;
}

std::string CheckNesting() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& t : g_threads) {
    std::unordered_map<uint64_t, const Record*> by_id;
    std::unordered_map<uint64_t, int64_t> child_sum;
    for (const Record& r : t->records) by_id[r.id] = &r;
    for (const Record& r : t->records) {
      if (r.parent == 0) continue;
      auto it = by_id.find(r.parent);
      if (it == by_id.end()) continue;  // parent past the storage cap
      const Record& p = *it->second;
      if (r.start_ns < p.start_ns || r.end_ns > p.end_ns ||
          r.request != p.request) {
        return std::string("span ") + r.name + " escapes its parent " + p.name;
      }
      child_sum[p.id] += r.end_ns - r.start_ns;
    }
    for (const auto& [id, sum] : child_sum) {
      const Record& p = *by_id[id];
      if (sum > p.end_ns - p.start_ns) {
        return std::string("children of ") + p.name + " exceed its duration";
      }
    }
  }
  return "";
}

bool WriteSpans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& t : g_threads) {
    for (const Record& r : t->records) {
      out << t->index << '\t' << r.id << '\t' << r.parent << '\t' << r.request
          << '\t' << r.name << '\t' << r.start_ns << '\t' << r.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench::trace
