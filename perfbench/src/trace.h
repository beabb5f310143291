// In-memory span tracing for the traced run. Spans are recorded only around
// calls the benchmark makes into the engine (and the engine's calls back
// into the benchmark's LogFile/Transport decorators), never inside src/.
//
// A span opened while no other span is open on the thread is a root and
// starts a new request id; nested spans on the same thread are its
// children. Each closed span adds its duration to its parent's child time,
// so self time = duration - time covered by children.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Turns recording on or off for every thread (off costs one atomic load
/// per span).
void Enable(bool on);
bool Enabled();

/// Drops every recorded span and aggregate.
void Reset();

/// RAII span on the calling thread. `name` must outlive the run (use a
/// string literal).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct LayerTotals {
  std::string name;
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Per span name, summed over threads.
std::vector<LayerTotals> Totals();

/// Total spans recorded (stored or aggregated only).
uint64_t SpanCount();

/// Verifies the stored spans: every child lies inside its parent's
/// interval, and the children of a span sum to no more than its duration.
/// Returns "" when they do, else a description of the first violation.
std::string CheckNesting();

/// Writes stored spans as TSV: thread, id, parent, request, name,
/// start_ns, end_ns. Returns false on I/O failure.
bool WriteSpans(const std::string& path);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
