// hjperf: runs one benchmark workload and prints its metrics.
//
//   hjperf --workload=mem_join|disk_storm|zipf_replay|sim_join --seed=N
//          --seconds=S --trace=0|1 [--trace-out=FILE] [--tiny]
//          [--inject-wrong-count]
//
// --trace=0 measures the end-to-end metrics with tracing off. --trace=1
// runs a traced window of S/2 between two untraced ones of S/4 on the
// same inputs; it prints the per-layer metrics (span self times per
// operation plus the stats the library returns) and a self-time table,
// and writes the spans as Chrome trace-event JSON to --trace-out. The
// last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics": {name: value}}; run.py attaches the
// units BENCHMARK.json gives and checks that every metric is there. The
// exit code is 0 only when every result was correct.

#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Spans of this layer are the benchmark's own glue (an operation's root
/// and a query body outside its calls into the library): their self
/// time is the wall time no named layer accounts for.
constexpr const char* kGlueLayer = "query";

std::string Layer(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Value at percentile p (nearest rank) of sorted `v`.
double AtPercentile(const std::vector<double>& v, double p) {
  const size_t rank = size_t(std::ceil(p * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Samples above percentile p (nearest rank) of `n` samples.
size_t Beyond(size_t n, double p) {
  return n - std::min(n, size_t(std::ceil(p * double(n))));
}

double PeakRssMiB() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string ReadFirstLine(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line.empty() ? "unknown" : line;
}

size_t InWindow(const Window& w) {
  return size_t(std::count_if(w.ops.begin(), w.ops.end(),
                              [](const OpRecord& op) { return op.in_window; }));
}

/// Wall seconds per completed operation of the windows together.
double SecondsPerOp(std::initializer_list<const Window*> windows) {
  double seconds = 0;
  size_t n = 0;
  for (const Window* w : windows) {
    seconds += w->seconds;
    n += InWindow(*w);
  }
  return n == 0 ? 0 : seconds / double(n);
}

/// Throughput and latency of one stretch of a window.
struct Slice {
  double tuples = 0;
  std::vector<double> latency;
};

/// End-to-end metrics of an untraced window. The window is cut into the
/// workload's number of equal stretches by completion time and each
/// metric is the median over the stretches, so a stall of the host that
/// hits one stretch does not move the run's figure. latency_tail_s is
/// the workload's fixed percentile in every stretch.
std::map<std::string, double> EndToEnd(const Window& w, const Workload& wl,
                                       double setup_s) {
  const size_t n = InWindow(w);
  const size_t slices = wl.Stretches();
  const double p = wl.TailPercentile();
  const double slice_s = w.seconds / double(slices);
  std::vector<Slice> cut(slices);
  for (const OpRecord& op : w.ops) {
    if (!op.in_window) continue;
    const size_t k = std::min(
        slices - 1, size_t(std::max(0.0, op.end - w.start) / slice_s));
    cut[k].latency.push_back(op.end - op.start);
    cut[k].tuples += double(op.input_tuples);
  }
  std::vector<double> tuples_per_s, queries_per_s, p50, tail;
  size_t fewest_beyond = n;
  for (Slice& c : cut) {
    tuples_per_s.push_back(slice_s > 0 ? c.tuples / slice_s : 0);
    queries_per_s.push_back(slice_s > 0 ? double(c.latency.size()) / slice_s
                                        : 0);
    fewest_beyond = std::min(fewest_beyond, Beyond(c.latency.size(), p));
    if (c.latency.empty()) continue;
    p50.push_back(Median(c.latency));
    std::sort(c.latency.begin(), c.latency.end());
    tail.push_back(AtPercentile(c.latency, p));
  }
  std::map<std::string, double> m;
  m["setup_s"] = setup_s;
  m["peak_rss_mib"] = PeakRssMiB();
  m["tuples_per_s"] = Median(tuples_per_s);
  m["queries_per_s"] = Median(queries_per_s);
  m["latency_p50_s"] = Median(p50);
  m["latency_tail_s"] = Median(tail);
  // run.py records the percentile with the result (see record()).
  std::printf("%zu operations in %zu stretch(es)\n"
              "latency_tail_s is p%g; fewest samples beyond it in a "
              "stretch: %zu\n",
              n, slices, p * 100, fewest_beyond);
  return m;
}

/// Per-layer metrics of a traced window: the workload's own values, then
/// "<span>_s", the self time per operation of every span name, then the
/// trace's attribution and overhead.
std::map<std::string, double> PerLayer(const Window& traced,
                                       double untraced_s_per_op,
                                       const std::vector<Span>& spans) {
  std::map<std::string, double> m = traced.layer;
  const std::map<std::string, double> self = SelfTimeByName(spans);
  const double ops = double(std::max<size_t>(1, traced.ops.size()));
  for (const auto& [name, seconds] : self) {
    m.emplace(name + "_s", seconds / ops);
  }
  double root = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) root += s.end - s.start;
  }
  double glue = 0;
  for (const auto& [name, seconds] : self) {
    if (Layer(name) == kGlueLayer) glue += seconds;
  }
  m["trace.unattributed_frac"] = root > 0 ? glue / root : 1;
  m["trace.overhead_frac"] =
      untraced_s_per_op > 0 ? SecondsPerOp({&traced}) / untraced_s_per_op - 1
                            : 0;
  return m;
}

void PrintSelfTimeTable(const std::vector<Span>& spans, size_t ops) {
  const std::map<std::string, double> self = SelfTimeByName(spans);
  std::map<std::string, double> by_layer;
  double total = 0;
  for (const auto& [name, seconds] : self) {
    by_layer[Layer(name)] += seconds;
    total += seconds;
  }
  std::printf("\nself time by span (%zu spans, %zu ops):\n", spans.size(),
              ops);
  std::printf("  %-28s %12s %8s %14s\n", "span", "self_s", "share",
              "self_s/op");
  for (const auto& [layer, layer_s] : by_layer) {
    std::printf("  %-28s %12.6f %7.2f%% %14.9f\n", (layer + ".*").c_str(),
                layer_s, total > 0 ? 100 * layer_s / total : 0,
                layer_s / double(std::max<size_t>(1, ops)));
    for (const auto& [name, seconds] : self) {
      if (Layer(name) != layer) continue;
      std::printf("    %-26s %12.6f %7.2f%% %14.9f\n", name.c_str(), seconds,
                  total > 0 ? 100 * seconds / total : 0,
                  seconds / double(std::max<size_t>(1, ops)));
    }
  }
  std::printf("\n");
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(value) ? value : 0.0);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// The value of "--name=value", "1" for a bare "--name", or nullptr.
/// Parsing allocates nothing, so the heap a sim_join run starts from is
/// the same whatever the arguments (see SimJoin's cycle reference).
const char* FlagValue(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return nullptr;
  if (arg[n] == '\0') return "1";
  return arg[n] == '=' ? arg + n + 1 : nullptr;
}

int Main(int argc, char** argv) {
  Options opts;
  bool trace = false;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = FlagValue(argv[i], "--workload"))) {
      opts.workload = v;
    } else if ((v = FlagValue(argv[i], "--seed"))) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = FlagValue(argv[i], "--seconds"))) {
      opts.seconds = std::strtod(v, nullptr);
    } else if ((v = FlagValue(argv[i], "--trace-out"))) {
      trace_out = v;
    } else if ((v = FlagValue(argv[i], "--trace"))) {
      trace = std::strcmp(v, "1") == 0;
    } else if ((v = FlagValue(argv[i], "--tiny"))) {
      opts.tiny = true;
    } else if ((v = FlagValue(argv[i], "--inject-wrong-count"))) {
      opts.inject_wrong_count = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (MakeWorkload(opts) == nullptr || opts.seconds <= 0) {
    std::fprintf(stderr, "usage: hjperf --workload=<name> --seed=N "
                         "--seconds=S --trace=0|1\n");
    return 2;
  }

  std::printf("host: nproc=%u l2=%llu KiB l3=%llu KiB "
              "perf_event_paranoid=%s\n",
              std::thread::hardware_concurrency(),
              (unsigned long long)(HostCacheBytes(2) >> 10),
              (unsigned long long)(HostCacheBytes(3) >> 10),
              ReadFirstLine("/proc/sys/kernel/perf_event_paranoid").c_str());

  // Set up several times and report the median, so work moved into
  // set-up shows in setup_s.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_times;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const int setups = MakeWorkload(opts)->SetupRepeats();
  for (int i = 0; i < setups; ++i) {
    w.reset();
    const double t0 = Now();
    w = MakeWorkload(opts);
    const bool ok = w->Setup();
    setup_times.push_back(Now() - t0);
    ++attempted;
    if (!ok) ++failed;
  }
  std::printf("workload %s seed %llu: %s\ninputs fingerprint %016llx\n",
              opts.workload.c_str(), (unsigned long long)opts.seed,
              w->Geometry().c_str(),
              (unsigned long long)w->InputFingerprint());

  Tracer off(false);
  std::map<std::string, double> values;
  auto tally = [&](const Window& window) {
    attempted += window.ops.size();
    failed += window.failed;
  };
  if (!trace) {
    const Window untraced = w->Run(opts.seconds, off);
    tally(untraced);
    values = EndToEnd(untraced, *w, Median(setup_times));
  } else {
    // Half the time traced, between two untraced quarters, so the
    // overhead estimate does not depend on which window ran first.
    const Window before = w->Run(opts.seconds / 4, off);
    Tracer tracer(true);
    const Window traced = w->Run(opts.seconds / 2, tracer);
    const Window after = w->Run(opts.seconds / 4, off);
    tally(before);
    tally(traced);
    tally(after);
    const std::vector<Span> spans = tracer.Snapshot();
    PrintSelfTimeTable(spans, traced.ops.size());
    values = PerLayer(traced, SecondsPerOp({&before, &after}), spans);
    values["error_rate"] = double(failed) / double(attempted);
    if (trace_out != nullptr) {
      if (WriteChromeTrace(spans, trace_out)) {
        std::printf("wrote %s\n", trace_out);
      } else {
        std::printf("could not write %s\n", trace_out);
        ++failed;
      }
    }
  }
  w.reset();
  PrintResult(failed == 0, attempted, failed, values);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Simulated cycle counts depend on buffer addresses. With address
  // randomization off, a seed reproduces them exactly; where the
  // personality cannot be changed the run goes on with it on.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(persona | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }
  return perfbench::Main(argc, argv);
}
