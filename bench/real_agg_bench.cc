// Real-hardware microbenchmarks of hash-based group-by aggregation — the
// paper's proposed extension — comparing the baseline loop against group
// and software-pipelined prefetching across group counts (cache-resident
// to far-beyond-cache accumulators).

// --json[=path] switches to the machine-readable harness (see
// src/perf/bench_reporter.h), writing BENCH_real_agg.json; --smoke
// shrinks the fact table for ctest; --tune=static (alias: --auto-tune)
// calibrates T/Tnext plus the LFB ceiling and picks G and D from the
// models via the shared bench::ResolveTuning resolver.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "join/exec_policy.h"
#include "mem/memory_model.h"
#include "model/cost_model.h"
#include "perf/bench_reporter.h"
#include "perf/calibrate.h"
#include "simcache/sim_config.h"
#include "util/bitops.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

Relation MakeFacts(uint64_t groups, uint64_t num_tuples) {
  Relation r(Schema({{"key", AttrType::kInt32, 4},
                     {"value", AttrType::kInt64, 8},
                     {"pad", AttrType::kFixedChar, 8}}));
  Rng rng(5);
  for (uint64_t i = 0; i < num_tuples; ++i) {
    uint8_t t[20] = {};
    uint32_t key = uint32_t(rng.NextBounded(groups));
    int64_t value = int64_t(rng.NextBounded(100));
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    r.Append(t, sizeof(t), HashKey32(key));
  }
  return r;
}

const Relation& SharedFacts(uint64_t groups) {
  static auto* cache = new std::map<uint64_t, Relation>();
  auto it = cache->find(groups);
  if (it == cache->end()) {
    it = cache->emplace(groups, MakeFacts(groups, 4'000'000)).first;
  }
  return it->second;
}

// range(0) = distinct group count; range(1) = G (group, coro width) or
// D (swp).
void RunAgg(benchmark::State& state, Scheme scheme) {
  uint64_t groups = uint64_t(state.range(0));
  const Relation& facts = SharedFacts(groups);
  KernelParams params;
  params.group_size = uint32_t(state.range(1));
  params.prefetch_distance = params.group_size;
  RealMemory mm;
  for (auto _ : state) {
    state.PauseTiming();
    HashAggTable agg(NextRelativelyPrime(groups, 31));
    state.ResumeTiming();
    AggregateRelation(mm, scheme, facts, 4, &agg, params);
    benchmark::DoNotOptimize(agg.num_groups());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(facts.num_tuples()));
}

void BM_Agg_Baseline(benchmark::State& state) {
  RunAgg(state, Scheme::kBaseline);
}
void BM_Agg_Group(benchmark::State& state) { RunAgg(state, Scheme::kGroup); }
void BM_Agg_Swp(benchmark::State& state) { RunAgg(state, Scheme::kSwp); }
#if HASHJOIN_HAS_COROUTINES
void BM_Agg_Coro(benchmark::State& state) { RunAgg(state, Scheme::kCoro); }
#endif

// {groups, G/D}; keys are uniform 32-bit, so "groups" ~= tuple count
// for the large setting (mostly-distinct) — the interesting regime.
BENCHMARK(BM_Agg_Baseline)
    ->Args({1 << 14, 1})
    ->Args({1 << 22, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Agg_Group)
    ->Args({1 << 14, 19})
    ->Args({1 << 22, 8})
    ->Args({1 << 22, 19})
    ->Args({1 << 22, 48})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Agg_Swp)
    ->Args({1 << 14, 4})
    ->Args({1 << 22, 2})
    ->Args({1 << 22, 4})
    ->Args({1 << 22, 8})
    ->Unit(benchmark::kMillisecond);
#if HASHJOIN_HAS_COROUTINES
BENCHMARK(BM_Agg_Coro)
    ->Args({1 << 14, 19})
    ->Args({1 << 22, 8})
    ->Args({1 << 22, 19})
    ->Args({1 << 22, 48})
    ->Unit(benchmark::kMillisecond);
#endif

int RunJsonHarness(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const uint64_t num_facts = smoke ? 100'000 : 4'000'000;

  perf::BenchReporter::Options opt;
  opt.bench_name = "real_agg";
  std::string path = flags.GetString("json", "");
  if (!path.empty() && path != "true") opt.output_path = path;
  opt.trials = int(flags.GetInt("trials", smoke ? 2 : 5));
  opt.warmup = int(flags.GetInt("warmup", 1));
  perf::BenchReporter reporter(std::move(opt));

  // Shared tuning resolution (see bench_common.h): one path for every
  // scheme, clamped against the measured LFB/MSHR ceiling.
  const bench::TuningResolution tuning = bench::ResolveTuning(
      flags, AggregateCodeCosts(), bench::PaperJoinDefaults());
  const KernelParams tuned = tuning.params;
  if (tuning.calibrated) reporter.SetCalibration(tuning.calibration);

  std::vector<uint64_t> group_counts =
      smoke ? std::vector<uint64_t>{1 << 10}
            : std::vector<uint64_t>{1 << 14, 1 << 22};
  RealMemory mm;
  // Scheme set: every compiled-in scheme except simple (no inter-tuple
  // protocol, uninteresting for the accumulator-bound loop); --scheme
  // overrides. The G column doubles as the coroutine interleave width.
  std::vector<Scheme> schemes;
  if (flags.Has("scheme")) {
    schemes = bench::SchemesFromFlag(flags);
  } else {
    schemes = {Scheme::kBaseline, Scheme::kGroup, Scheme::kSwp};
    if (SchemeAvailable(Scheme::kCoro)) schemes.push_back(Scheme::kCoro);
  }

  for (uint64_t groups : group_counts) {
    const Relation facts = MakeFacts(groups, num_facts);
    for (Scheme scheme : schemes) {
      const KernelParams params = tuned;
      std::unique_ptr<HashAggTable> agg;
      uint64_t out_groups = 0;
      JsonValue config = JsonValue::Object();
      config.Set("phase", "aggregate");
      config.Set("scheme", SchemeName(scheme));
      config.Set("G", params.group_size);
      config.Set("D", params.prefetch_distance);
      config.Set("threads", 1);
      config.Set("groups", groups);
      config.Set("fact_tuples", facts.num_tuples());
      JsonValue& rec = reporter.AddRecord(
          std::string("agg/") + SchemeName(scheme) + "/groups=" +
              std::to_string(groups),
          std::move(config),
          /*body=*/
          [&] {
            AggregateRelation(mm, scheme, facts, 4, agg.get(), params);
            out_groups = agg->num_groups();
          },
          /*setup=*/
          [&] {
            agg = std::make_unique<HashAggTable>(
                NextRelativelyPrime(groups, 31));
          });
      rec.Set("outputs", out_groups);
      rec.Set("verified", out_groups <= groups && out_groups > 0);
      rec.Set("tuning", tuning.ToJson());
    }
  }

  Status st = reporter.Write();
  if (!st.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n",
                 reporter.output_path().c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records, counters %s)\n",
              reporter.output_path().c_str(),
              reporter.doc().Find("records")->size(),
              reporter.counters_available() ? "available" : "unavailable");
  return 0;
}

}  // namespace
}  // namespace hashjoin

// Custom main so the repo's harness flags coexist with
// google-benchmark's: --json short-circuits into the JSON harness, and
// the repo flags are stripped from argv before google-benchmark (which
// rejects unknown flags) sees them.
int main(int argc, char** argv) {
  hashjoin::FlagParser flags;
  flags.Parse(argc, argv);
  if (flags.Has("json")) return hashjoin::RunJsonHarness(flags);
  // Validate --scheme even on the google-benchmark path (where the
  // registered benchmark list, not the flag, picks the kernels): a typo
  // should fail loudly, not silently run everything.
  if (flags.Has("scheme")) {
    (void)hashjoin::bench::SchemesFromFlag(flags);
  }

  const char* repo_flags[] = {"--smoke", "--trials", "--warmup",
                              "--tune", "--auto-tune", "--scheme"};
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    bool ours = false;
    for (const char* f : repo_flags) {
      if (a.rfind(f, 0) == 0) {
        if (a == f && i + 1 < argc && argv[i + 1][0] != '-') ++i;
        ours = true;
        break;
      }
    }
    if (!ours) args.push_back(argv[i]);
  }
  int filtered_argc = int(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
