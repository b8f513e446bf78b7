#ifndef HASHJOIN_PERFBENCH_WORKLOADS_H_
#define HASHJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Small inputs for the benchmark's own self-test; same code paths.
  bool tiny = false;
  /// Adds one to the expected count of the first measured operation, so
  /// the self-test can see a wrong result reported as a failure.
  bool inject_wrong_count = false;
};

/// One measured operation: a join issued by a single client, or a
/// service query from its Submit() to the end of its body.
struct OpRecord {
  double start = 0;
  double end = 0;
  uint64_t input_tuples = 0;
  /// Completed inside the measurement window (service workloads drain
  /// the queries still outstanding at the deadline, verify them, and do
  /// not time them).
  bool in_window = true;
};

/// What one measurement window produced.
struct Window {
  double start = 0;
  double seconds = 0;
  std::vector<OpRecord> ops;
  /// Operations with a wrong count, an error status, a rejected submit,
  /// or a broken broker invariant.
  uint64_t failed = 0;
  /// Per-layer values computed from the program's own returned stats,
  /// keyed by per-layer metric name.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed, builds the service, and runs
  /// one untimed warm-up operation. Returns whether the warm-up result
  /// was correct.
  virtual bool Setup() = 0;

  /// How many times a run sets up, for the median setup_s.
  virtual int SetupRepeats() const { return 5; }

  /// The latency percentile reported as latency_tail_s, and the number of
  /// equal stretches a window is cut into. Both follow from the workload's
  /// fixed sizes, not from how many operations a run completes, so a
  /// slower run reports the same percentile as a faster one.
  virtual double TailPercentile() const = 0;
  virtual size_t Stretches() const { return 1; }

  /// Runs the closed loop for `seconds` and verifies every result.
  virtual Window Run(double seconds, Tracer& tracer) = 0;

  /// Input sizes relative to the host's or the simulator's caches.
  virtual std::string Geometry() const = 0;

  /// Hash of the generated inputs; differs between seeds.
  virtual uint64_t InputFingerprint() const = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Options& opts);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Host cache sizes in bytes read from sysfs (0 when unknown).
uint64_t HostCacheBytes(int level);

}  // namespace perfbench

#endif  // HASHJOIN_PERFBENCH_WORKLOADS_H_
