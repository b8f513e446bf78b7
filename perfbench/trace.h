#ifndef HASHJOIN_PERFBENCH_TRACE_H_
#define HASHJOIN_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

/// One timed interval at a layer boundary. `name` is "<layer>.<what>";
/// the layer prefix is what the self-time table groups by. A span with
/// parent -1 is a root: one operation (a join, a service query) or a
/// generator step beside the queries.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;
  uint64_t query = 0;
  uint32_t thread = 0;
};

/// In-memory span recorder, safe to call from any thread. Disabled, it
/// records nothing and reads no clock, so an untraced run pays only a
/// branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id, or -1 when disabled.
  int64_t Add(const char* name, double start, double end, int64_t parent,
              uint64_t query);

  /// Opens a span that starts now; Close() or SetEnd() finishes it.
  int64_t Open(const char* name, int64_t parent, uint64_t query);
  void Close(int64_t id);
  void SetEnd(int64_t id, double end);

  /// Copy of every span recorded so far (ids are indices).
  std::vector<Span> Snapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t parent,
             uint64_t query)
      : tracer_(tracer), id_(tracer.Open(name, parent, query)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const int64_t id_;
};

/// Sum of self time per span name. A span's self time is its duration
/// minus the union of its children's intervals, clipped to the span.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (complete "X" events in
/// microseconds), which chrome://tracing and Perfetto load. Spans of one
/// query share a track; spans outside queries use their thread's track.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // HASHJOIN_PERFBENCH_TRACE_H_
