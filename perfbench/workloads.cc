// The four benchmark workloads. Each drives the library only through
// the public API that src/ exports, feeds it inputs generated from the
// seed, verifies every result, and records spans around each call into
// a layer when the tracer is on.
//
//   mem_join     one client, GraceHashJoin on RealMemory; the build side
//                is >= 4x the host L3 and the budget >= 2x, so every
//                partition's hash table overflows the LLC (the paper's
//                setting). Bypasses storage, sched and cache.
//   disk_storm   hybrid DiskGraceJoin queries through JoinScheduler at 2x
//                memory oversubscription, mixed priorities, non-sleeping
//                simulated disks. Stresses storage, the degradation
//                ladder and broker revoke/re-grow; bypasses the cache and
//                the LLC-bound probe.
//   zipf_replay  Zipf(1.0) probe queries against a versioned catalog
//                through JoinScheduler + HashTableCache, with updates and
//                invalidations applied at issue time. Stresses cache hits
//                on L3-resident tables (the bypass side for LLC-miss
//                work) and the kCache grant class.
//   sim_join     GraceHashJoin on SimMemory: the relation is several times
//                the simulated L2 and the partition output buffers exceed
//                it, so both group-prefetched kernels run. The only
//                deterministic stall attribution on a host without
//                hardware counters.
//
// The service workloads are closed loops: one generator thread keeps
// more queries outstanding than SchedulerConfig::max_concurrent, so the
// admission queue never empties.

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cache/hash_table_cache.h"
#include "hash/hash_table.h"
#include "join/grace.h"
#include "join/grace_disk.h"
#include "mem/memory_model.h"
#include "sched/join_scheduler.h"
#include "simcache/memory_sim.h"
#include "storage/buffer_manager.h"
#include "workload/generator.h"
#include "workload/replay.h"

namespace perfbench {

using namespace hashjoin;

namespace {

constexpr uint64_t kMiB = 1ull << 20;

uint32_t Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Service concurrency: at most 4, and never more than the host's CPUs.
uint32_t ServiceThreads() { return std::min(4u, Nproc()); }

/// FNV-1a over the first page of `rel` and its tuple count.
uint64_t Fingerprint(const Relation& rel, uint64_t h = 1469598103934665603ull) {
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  const uint64_t n = rel.num_tuples();
  mix(&n, sizeof(n));
  if (rel.num_pages() > 0) {
    const SlottedPage page = rel.page(0);
    for (int s = 0; s < page.slot_count(); ++s) {
      uint16_t len = 0;
      const uint8_t* tuple = page.GetTuple(s, &len);
      mix(tuple, len);
    }
  }
  return h;
}

/// Records the phases a library call reported (wall seconds each) as
/// consecutive child spans of `parent`, starting at `start`.
void AddPhases(Tracer& tr, int64_t parent, uint64_t q, double start,
               std::initializer_list<std::pair<const char*, double>> phases) {
  if (!tr.enabled()) return;
  double t = start;
  for (const auto& [name, seconds] : phases) {
    if (seconds <= 0) continue;
    tr.Add(name, t, t + seconds, parent, q);
    t += seconds;
  }
}

std::string QueryName(char prefix, uint64_t q) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%c%llu", prefix,
                              (unsigned long long)q);
  return std::string(buf, size_t(n));
}

double PerOp(double total, size_t ops) {
  return ops == 0 ? 0.0 : total / double(ops);
}

// ---------------------------------------------------------------------------
// Closed-loop service driver shared by disk_storm and zipf_replay.

/// One service query as the generator issued it.
struct QueryRec {
  uint64_t q = 0;   // 1-based issue number; the spans' query id
  uint64_t id = 0;  // scheduler query id
  bool rejected = false;
  double submit = 0;
  double body_start = 0;
  double body_end = 0;
  int64_t root_span = -1;
  int64_t body_span = -1;
  uint64_t input_tuples = 0;
  uint64_t input_bytes = 0;
  uint64_t expected = 0;
  // Filled by the body.
  bool cache_hit = false;
  uint32_t num_partitions = 0;
  double main_stall = 0;
  double disk_busy = 0;
};

using QueryBody = std::function<StatusOr<uint64_t>(QueryContext&, QueryRec&)>;

/// Fills the request envelope, the expected count and the inputs of
/// query `rec.q`; runs on the generator thread at issue time.
using MakeQuery =
    std::function<void(QueryRec& rec, JoinRequest* req, QueryBody* body)>;

struct LoopResult {
  double t0 = 0;
  double deadline = 0;
  std::vector<std::unique_ptr<QueryRec>> recs;
  std::unordered_map<uint64_t, QueryStats> stats;  // by scheduler id
  uint64_t failed = 0;
};

/// Keeps `depth` queries outstanding until `seconds` pass, then drains
/// the scheduler and verifies every query: OK status, the expected
/// count, and the broker invariant revoke_spills > 0 => grant_revokes > 0.
LoopResult RunClosedLoop(JoinScheduler& sched, uint32_t depth,
                         double seconds, Tracer& tr, const MakeQuery& make) {
  LoopResult out;
  std::mutex mu;
  std::condition_variable cv;
  uint32_t inflight = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  out.t0 = Now();
  out.deadline = out.t0 + seconds;
  for (uint64_t q = 1;; ++q) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_until(lock, deadline, [&] { return inflight < depth; });
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    auto rec = std::make_unique<QueryRec>();
    rec->q = q;
    JoinRequest req;
    QueryBody inner;
    make(*rec, &req, &inner);
    QueryRec* r = rec.get();
    req.body = [&, r, inner = std::move(inner)](
                   QueryContext& ctx) -> StatusOr<uint64_t> {
      r->body_start = Now();
      r->body_span = tr.Add("query.body", r->body_start, r->body_start,
                            r->root_span, r->q);
      StatusOr<uint64_t> result = inner(ctx, *r);
      r->body_end = Now();
      tr.SetEnd(r->body_span, r->body_end);
      {
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
      }
      cv.notify_one();
      return result;
    };
    r->submit = Now();
    r->root_span = tr.Add("query", r->submit, r->submit, -1, q);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++inflight;
    }
    StatusOr<uint64_t> id = sched.Submit(std::move(req));
    if (id.ok()) {
      r->id = id.value();
    } else {
      r->rejected = true;
      std::lock_guard<std::mutex> lock(mu);
      --inflight;
    }
    out.recs.push_back(std::move(rec));
  }

  ServiceStats service = sched.Drain();
  for (QueryStats& qs : service.queries) {
    const uint64_t qid = qs.query_id;
    out.stats.emplace(qid, std::move(qs));
  }
  for (const auto& rec : out.recs) {
    auto it = rec->rejected ? out.stats.end() : out.stats.find(rec->id);
    const bool ok = it != out.stats.end() && it->second.status.ok() &&
                    it->second.output_tuples == rec->expected &&
                    (it->second.recovery.revoke_spills == 0 ||
                     it->second.grant_revokes > 0);
    if (!ok) ++out.failed;
    if (it == out.stats.end() || !tr.enabled()) continue;
    // Queue and grant-wait phases from the scheduler's own timings; the
    // grant wait is run_seconds minus the body as timed here.
    const QueryStats& qs = it->second;
    const double queue_end = rec->submit + qs.queue_seconds;
    const double grant = std::max(
        0.0, qs.run_seconds - (rec->body_end - rec->body_start));
    tr.Add("sched.queue", rec->submit, queue_end, rec->root_span, rec->q);
    tr.Add("sched.grant_wait", std::max(queue_end, rec->body_start - grant),
           rec->body_start, rec->root_span, rec->q);
    tr.SetEnd(rec->root_span, rec->body_end);
  }
  return out;
}

/// Runs one query to completion outside any window (the untimed
/// warm-up); returns whether its result was correct.
bool RunSingle(JoinScheduler& sched, const MakeQuery& make) {
  QueryRec rec;
  rec.q = 1;
  JoinRequest req;
  QueryBody inner;
  make(rec, &req, &inner);
  req.body = [&rec, inner = std::move(inner)](QueryContext& ctx) {
    return inner(ctx, rec);
  };
  StatusOr<uint64_t> id = sched.Submit(std::move(req));
  ServiceStats stats = sched.Drain();
  if (!id.ok()) return false;
  for (const QueryStats& qs : stats.queries) {
    if (qs.query_id == id.value()) {
      return qs.status.ok() && qs.output_tuples == rec.expected;
    }
  }
  return false;
}

/// Window timing of a closed loop: throughput and latency count the
/// queries that finished before the deadline.
Window LoopWindow(const LoopResult& loop) {
  Window w;
  w.start = loop.t0;
  w.seconds = loop.deadline - loop.t0;
  w.failed = loop.failed;
  for (const auto& rec : loop.recs) {
    OpRecord op;
    op.start = rec->submit;
    op.end = rec->body_end;
    op.input_tuples = rec->input_tuples;
    op.in_window = !rec->rejected && rec->body_end <= loop.deadline;
    w.ops.push_back(op);
  }
  return w;
}

/// Broker counters at the start of a window, diffed into per-query
/// layer metrics at its end.
struct BrokerMark {
  explicit BrokerMark(const MemoryBroker& b)
      : revokes(b.total_revokes()),
        regrows(b.total_regrows()),
        cache_revoked(b.cache_revoked_bytes()) {}
  uint64_t revokes;
  uint64_t regrows;
  uint64_t cache_revoked;
};

void AddBrokerLayers(const MemoryBroker& b, const BrokerMark& mark,
                     size_t ops, std::map<std::string, double>* layer) {
  auto& L = *layer;
  L["sched.broker_revokes"] =
      PerOp(double(b.total_revokes() - mark.revokes), ops);
  L["sched.broker_regrows"] =
      PerOp(double(b.total_regrows() - mark.regrows), ops);
  L["sched.cache_revoked_bytes"] =
      PerOp(double(b.cache_revoked_bytes() - mark.cache_revoked), ops);
  L["sched.normal_revokes_with_cache_surplus"] =
      double(b.normal_revokes_with_cache_surplus());
}

/// The cache-before-normal revoke order: no normal grant may be cut
/// while the cache still holds revocable surplus.
uint64_t BrokerViolations(const MemoryBroker& b) {
  return b.normal_revokes_with_cache_surplus() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// mem_join

class MemJoin : public Workload {
 public:
  explicit MemJoin(const Options& opts)
      : opts_(opts), inject_(opts.inject_wrong_count) {
    spec_.tuple_size = 100;
    // 432 MiB of build tuples: 4.1x a 105 MiB L3. Half of the build
    // tuples have one probe match, so the probe side is half the build
    // side; that keeps the peak footprint (inputs, partitions at two
    // pages of heap per aligned page, per-partition output) near 3 GiB.
    spec_.num_build_tuples = opts.tiny ? 20000 : (432 * kMiB) / 100;
    spec_.matches_per_build = 1.0;
    spec_.build_match_fraction = 0.5;
    spec_.seed = opts.seed;
    config_.memory_budget = opts.tiny ? kMiB : 256 * kMiB;
  }

  // Each set-up generates 650 MiB and runs a full warm-up join.
  int SetupRepeats() const override { return 3; }

  // About ten joins of ~2 s each in a 20 s window.
  double TailPercentile() const override { return 0.9; }

  bool Setup() override {
    input_ = std::make_unique<JoinWorkload>(GenerateJoinWorkload(spec_));
    RealMemory mm;
    return GraceHashJoin(mm, input_->build, input_->probe, config_, nullptr)
               .output_tuples == input_->expected_matches;
  }

  Window Run(double seconds, Tracer& tr) override {
    Window w;
    const double deadline = Now() + seconds;
    double partitions = 0;
    do {
      OpRecord op;
      const uint64_t q = w.ops.size() + 1;
      const int64_t root = tr.Open("query", -1, q);
      op.start = Now();
      uint32_t num_parts = 0;
      const uint64_t got = tr.enabled() ? TracedJoin(tr, root, q, &num_parts)
                                        : PlainJoin(&num_parts);
      op.end = Now();
      tr.SetEnd(root, op.end);
      op.input_tuples = input_->build.num_tuples() + input_->probe.num_tuples();
      uint64_t expected = input_->expected_matches;
      if (inject_) {
        ++expected;
        inject_ = false;
      }
      if (got != expected) ++w.failed;
      partitions += num_parts;
      w.ops.push_back(op);
    } while (Now() < deadline);
    w.start = w.ops.front().start;
    w.seconds = w.ops.back().end - w.start;
    w.layer["join.num_partitions"] = PerOp(partitions, w.ops.size());
    return w;
  }

  std::string Geometry() const override {
    const uint64_t l3 = HostCacheBytes(3);
    const double build_mib = double(input_->build.data_bytes()) / kMiB;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "build %.0f MiB + probe %.0f MiB of %u-byte tuples, budget "
                  "%.0f MiB; build = %.2fx host L3, budget = %.2fx host L3",
                  build_mib, double(input_->probe.data_bytes()) / kMiB,
                  spec_.tuple_size, double(config_.memory_budget) / kMiB,
                  l3 ? double(input_->build.data_bytes()) / double(l3) : 0.0,
                  l3 ? double(config_.memory_budget) / double(l3) : 0.0);
    std::string g = buf;
    if (!opts_.tiny && l3 != 0 && input_->build.data_bytes() < 4 * l3) {
      g += "\nWARNING: mem_join build working set is under 4x the host L3 "
           "(" + std::to_string(l3 >> 20) + " MiB); its probes may hit in "
           "the LLC, which hides the effect prefetching targets";
    }
    return g;
  }

  uint64_t InputFingerprint() const override {
    return Fingerprint(input_->probe, Fingerprint(input_->build));
  }

 private:
  uint64_t PlainJoin(uint32_t* num_parts) {
    RealMemory mm;
    JoinResult r =
        GraceHashJoin(mm, input_->build, input_->probe, config_, nullptr);
    *num_parts = r.num_partitions;
    return r.output_tuples;
  }

  /// GraceHashJoin's serial path, through its public pieces, with a span
  /// around each call into a layer.
  uint64_t TracedJoin(Tracer& tr, int64_t root, uint64_t q,
                      uint32_t* num_parts) {
    const Relation& build = input_->build;
    const Relation& probe = input_->probe;
    RealMemory mm;
    const PartitionPlan plan = PlanPartitionPasses(
        ComputeNumPartitions(build.num_tuples(), build.data_bytes(),
                             config_.memory_budget),
        config_.max_active_partitions);
    const uint32_t parts = plan.FinalParts();
    *num_parts = parts;
    std::vector<Relation> build_parts;
    std::vector<Relation> probe_parts;
    {
      ScopedSpan s(tr, "join.partition", root, q);
      PartitionWithPlan(mm, config_, build, plan, &build_parts);
    }
    {
      ScopedSpan s(tr, "join.partition", root, q);
      PartitionWithPlan(mm, config_, probe, plan, &probe_parts);
    }
    Relation discard(ConcatSchema(build.schema(), probe.schema()),
                     config_.page_size);
    uint64_t matches = 0;
    for (uint32_t p = 0; p < parts; ++p) {
      if (build_parts[p].num_tuples() == 0 ||
          probe_parts[p].num_tuples() == 0) {
        continue;
      }
      std::unique_ptr<HashTable> ht;
      {
        ScopedSpan s(tr, "hash.table_init", root, q);
        ht = std::make_unique<HashTable>(
            ChooseBucketCount(build_parts[p].num_tuples(), parts));
      }
      {
        ScopedSpan s(tr, "join.build", root, q);
        BuildPartition(mm, config_.join_scheme, build_parts[p], ht.get(),
                       config_.join_params);
      }
      {
        ScopedSpan s(tr, "join.probe", root, q);
        matches += ProbePartition(mm, config_.join_scheme, probe_parts[p],
                                  *ht, build.schema().fixed_size(),
                                  config_.join_params, &discard);
      }
      ScopedSpan s(tr, "mem.release", root, q);
      ht.reset();
      discard.Clear();
    }
    ScopedSpan s(tr, "mem.release", root, q);
    build_parts.clear();
    probe_parts.clear();
    return matches;
  }

  const Options opts_;
  bool inject_;
  WorkloadSpec spec_;
  GraceConfig config_;
  std::unique_ptr<JoinWorkload> input_;
};

// ---------------------------------------------------------------------------
// disk_storm

class DiskStorm : public Workload {
 public:
  explicit DiskStorm(const Options& opts)
      : opts_(opts), inject_(opts.inject_wrong_count) {
    // The disk_grace benches' setting: the simulated disks do not sleep,
    // so wall time is the CPU and I/O path, not modeled transfer time.
    disks_.num_disks = 2;
    disks_.disk.bandwidth_mb_per_s = 20000;
    disks_.disk.request_latency_us = 0;
    sched_cfg_.max_concurrent = ServiceThreads();
    sched_cfg_.pool_threads = ServiceThreads();
    depth_ = sched_cfg_.max_concurrent + 2;
    sched_cfg_.max_queue = depth_;
  }

  // About 400 queries a stretch in a 20 s window: 20 beyond p95.
  double TailPercentile() const override { return 0.95; }
  size_t Stretches() const override { return opts_.tiny ? 1 : 4; }

  bool Setup() override {
    const uint64_t base_tuples = opts_.tiny ? 1500 : 15000;
    for (uint32_t i = 0; i < kDistinctInputs; ++i) {
      WorkloadSpec w;
      w.tuple_size = kTupleSize;
      w.num_build_tuples = base_tuples;
      w.seed = opts_.seed * kDistinctInputs + i;
      inputs_.push_back(
          std::make_unique<JoinWorkload>(GenerateJoinWorkload(w)));
    }
    // One query's in-memory working set: its build pages plus the table.
    working_set_ =
        inputs_[0]->build.num_pages() * inputs_[0]->build.page_size() +
        HashTable::EstimateBytes(base_tuples);
    // Half of what the running queries want: 2x oversubscribed.
    sched_cfg_.memory_budget = working_set_ * sched_cfg_.max_concurrent / 2;
    sched_ = std::make_unique<JoinScheduler>(sched_cfg_);
    return RunSingle(*sched_, [this](QueryRec& rec, JoinRequest* req,
                                     QueryBody* body) {
      Issue(rec, req, body, off_);
    });
  }

  Window Run(double seconds, Tracer& tr) override {
    const BrokerMark mark(sched_->broker());
    LoopResult loop = RunClosedLoop(
        *sched_, depth_, seconds, tr,
        [this, &tr](QueryRec& rec, JoinRequest* req, QueryBody* body) {
          Issue(rec, req, body, tr);
          if (inject_) {
            ++rec.expected;
            inject_ = false;
          }
        });
    Window w = LoopWindow(loop);
    w.failed += BrokerViolations(sched_->broker());

    const size_t n = loop.recs.size();
    double read = 0, written = 0, input_bytes = 0, retries = 0;
    double throttles = 0, stall = 0, busy = 0, partitions = 0;
    DiskJoinRecovery deg;
    for (const auto& rec : loop.recs) {
      input_bytes += double(rec->input_bytes);
      stall += rec->main_stall;
      busy += rec->disk_busy;
      partitions += rec->num_partitions;
      auto it = loop.stats.find(rec->id);
      if (rec->rejected || it == loop.stats.end()) continue;
      const QueryStats& qs = it->second;
      read += double(qs.io.bytes_read);
      written += double(qs.io.bytes_written);
      retries += double(qs.io.read_retries + qs.io.write_retries);
      throttles += double(qs.readahead_throttles);
      deg.victim_spills += qs.recovery.victim_spills;
      deg.victim_unspills += qs.recovery.victim_unspills;
      deg.recursive_splits += qs.recovery.recursive_splits;
      deg.role_reversals += qs.recovery.role_reversals;
      deg.chunked_fallbacks += qs.recovery.chunked_fallbacks;
      deg.bnl_fallbacks += qs.recovery.bnl_fallbacks;
    }
    auto& L = w.layer;
    L["io_bytes_per_input_byte"] =
        input_bytes > 0 ? (read + written) / input_bytes : 0;
    L["storage.bytes_read"] = PerOp(read, n);
    L["storage.bytes_written"] = PerOp(written, n);
    L["storage.retries"] = PerOp(retries, n);
    L["storage.readahead_throttles"] = PerOp(throttles, n);
    L["storage.main_stall_s"] = PerOp(stall, n);
    L["storage.disk_busy_s"] = PerOp(busy, n);
    L["join.num_partitions"] = PerOp(partitions, n);
    L["join.victim_spills"] = PerOp(double(deg.victim_spills), n);
    L["join.victim_unspills"] = PerOp(double(deg.victim_unspills), n);
    L["join.recursive_splits"] = PerOp(double(deg.recursive_splits), n);
    L["join.role_reversals"] = PerOp(double(deg.role_reversals), n);
    L["join.chunked_fallbacks"] = PerOp(double(deg.chunked_fallbacks), n);
    L["join.bnl_fallbacks"] = PerOp(double(deg.bnl_fallbacks), n);
    AddBrokerLayers(sched_->broker(), mark, n, &L);
    return w;
  }

  std::string Geometry() const override {
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "%u inputs of %llu x %u-byte build tuples (probe 2x); working set "
        "%.2f MiB/query; broker budget %.2f MiB = half of %u running "
        "queries' working sets; %u outstanding; %u disks/query at %.0f "
        "MB/s, %u us/request",
        kDistinctInputs, (unsigned long long)inputs_[0]->build.num_tuples(),
        kTupleSize, double(working_set_) / kMiB,
        double(sched_cfg_.memory_budget) / kMiB, sched_cfg_.max_concurrent,
        depth_, disks_.num_disks, disks_.disk.bandwidth_mb_per_s,
        disks_.disk.request_latency_us);
    return buf;
  }

  uint64_t InputFingerprint() const override {
    uint64_t h = 1469598103934665603ull;
    for (const auto& in : inputs_) {
      h = Fingerprint(in->probe, Fingerprint(in->build, h));
    }
    return h;
  }

 private:
  static constexpr uint32_t kDistinctInputs = 8;
  static constexpr uint32_t kTupleSize = 20;

  void Issue(QueryRec& rec, JoinRequest* req, QueryBody* body, Tracer& tr) {
    const JoinWorkload* in = inputs_[rec.q % kDistinctInputs].get();
    rec.expected = in->expected_matches;
    rec.input_tuples = in->build.num_tuples() + in->probe.num_tuples();
    rec.input_bytes = in->build.data_bytes() + in->probe.data_bytes();
    req->name = QueryName('s', rec.q);
    req->priority = int(rec.q % 3);  // mixed priorities reorder admission
    req->min_grant_bytes =
        std::max<uint64_t>(sched_cfg_.memory_budget / 8, 8 * 1024);
    req->desired_grant_bytes = working_set_;
    *body = [this, in, &tr](QueryContext& ctx, QueryRec& r) {
      return Query(ctx, r, *in, tr);
    };
  }

  /// The robust dynamic hybrid join on the query's own disk array, with
  /// the grant wired into sizing, read-ahead and the revoke listener.
  StatusOr<uint64_t> Query(QueryContext& ctx, QueryRec& rec,
                           const JoinWorkload& in, Tracer& tr) {
    std::unique_ptr<BufferManager> bm;
    std::unique_ptr<DiskGraceJoin> join;
    {
      ScopedSpan s(tr, "storage.open", rec.body_span, rec.q);
      bm = std::make_unique<BufferManager>(disks_);
      bm->SetReadAheadBudget(ctx.GrantFn());
      DiskJoinConfig cfg;
      cfg.dynamic_budget = ctx.GrantFn();
      cfg.initial_grant_bytes = ctx.grant().initial_bytes();
      cfg.adaptive_fanout = true;
      cfg.hybrid_residency = true;
      cfg.install_revoke_listener = ctx.RevokeListenerInstaller();
      join = std::make_unique<DiskGraceJoin>(bm.get(), cfg);
    }
    BufferManager::FileId build = 0;
    BufferManager::FileId probe = 0;
    {
      ScopedSpan s(tr, "storage.store", rec.body_span, rec.q);
      HJ_ASSIGN_OR_RETURN(build, join->StoreRelation(in.build));
      HJ_ASSIGN_OR_RETURN(probe, join->StoreRelation(in.probe));
    }
    DiskJoinResult r;
    {
      ScopedSpan s(tr, "join.disk", rec.body_span, rec.q);
      const double start = tr.enabled() ? Now() : 0;
      HJ_ASSIGN_OR_RETURN(r, join->Join(build, probe));
      AddPhases(tr, s.id(), rec.q, start,
                {{"join.disk_partition",
                  r.partition_phase.elapsed_seconds +
                      r.probe_partition_phase.elapsed_seconds},
                 {"join.disk_join", r.join_phase.elapsed_seconds}});
    }
    ctx.stats().recovery = r.recovery;
    ctx.stats().io = bm->recovery_stats();
    ctx.stats().readahead_throttles = bm->readahead_throttles();
    rec.num_partitions = r.num_partitions;
    rec.main_stall = bm->main_stall_seconds();
    for (double b : bm->DiskBusySeconds()) rec.disk_busy += b;
    ScopedSpan s(tr, "storage.close", rec.body_span, rec.q);
    join.reset();
    bm.reset();
    return r.output_tuples;
  }

  const Options opts_;
  bool inject_;
  Tracer off_{false};
  BufferManagerConfig disks_;
  SchedulerConfig sched_cfg_;
  uint32_t depth_ = 0;
  uint64_t working_set_ = 0;
  std::vector<std::unique_ptr<JoinWorkload>> inputs_;
  std::unique_ptr<JoinScheduler> sched_;
};

// ---------------------------------------------------------------------------
// zipf_replay

class ZipfReplay : public Workload {
 public:
  explicit ZipfReplay(const Options& opts)
      : opts_(opts), inject_(opts.inject_wrong_count) {
    spec_.num_tables = opts.tiny ? 8 : 16;
    spec_.build_tuples_per_table = opts.tiny ? 2000 : 20000;
    spec_.probe_tuples_per_query = opts.tiny ? 2000 : 20000;
    spec_.tuple_size = 64;
    spec_.zipf_theta = 1.0;
    spec_.update_rate = 0.01;
    // The trace is replayed cyclically; long enough not to wrap in a run.
    spec_.num_queries = 1u << 18;
    spec_.seed = opts.seed;
    sched_cfg_.max_concurrent = ServiceThreads();
    sched_cfg_.pool_threads = ServiceThreads();
    depth_ = sched_cfg_.max_concurrent + 2;
    sched_cfg_.max_queue = depth_;
  }

  // About 4000 queries a stretch in a 20 s window: 40 beyond p99.
  double TailPercentile() const override { return 0.99; }
  size_t Stretches() const override { return opts_.tiny ? 1 : 4; }

  bool Setup() override {
    trace_ = GenerateReplayTrace(spec_);
    catalog_ = std::make_unique<ReplayCatalog>(spec_);
    // One query's grant: build pages, a table (twice, while a miss
    // offers its fresh table), and the probe side — enough for the
    // single-partition plan the cache serves.
    const uint64_t build_bytes = catalog_->build(0)->data_bytes();
    const uint64_t table_bytes =
        HashTable::EstimateBytes(spec_.build_tuples_per_table);
    entry_bytes_ = build_bytes + table_bytes;
    working_set_ = 2 * entry_bytes_ + catalog_->probe(0)->data_bytes();
    // Hot tables fit, the catalog does not: room for half of it, plus
    // half a table of slack.
    sched_cfg_.cache_bytes =
        (spec_.num_tables / 2 + 1) * entry_bytes_ + entry_bytes_ / 2;
    // A quarter table short of the cache plus every running query: a
    // full set of admissions revokes cache bytes, but only from the
    // slack, so revokes shrink the cache without evicting hot tables
    // and the hit rate stays a property of the trace, not of timing.
    sched_cfg_.memory_budget = sched_cfg_.cache_bytes +
                               sched_cfg_.max_concurrent * working_set_ -
                               entry_bytes_ / 4;
    sched_ = std::make_unique<JoinScheduler>(sched_cfg_);
    return RunSingle(*sched_, [this](QueryRec& rec, JoinRequest* req,
                                     QueryBody* body) {
      Issue(rec, req, body, off_);
    });
  }

  Window Run(double seconds, Tracer& tr) override {
    const BrokerMark mark(sched_->broker());
    cache::HashTableCache* cache = sched_->table_cache();
    const cache::CacheStats c0 = cache->stats();
    LoopResult loop = RunClosedLoop(
        *sched_, depth_, seconds, tr,
        [this, &tr](QueryRec& rec, JoinRequest* req, QueryBody* body) {
          Issue(rec, req, body, tr);
          if (inject_) {
            ++rec.expected;
            inject_ = false;
          }
        });
    const cache::CacheStats c1 = cache->stats();
    Window w = LoopWindow(loop);
    w.failed += BrokerViolations(sched_->broker());

    const size_t n = loop.recs.size();
    std::vector<double> hit, miss;
    double partitions = 0;
    for (const auto& rec : loop.recs) {
      if (rec->rejected) continue;
      partitions += rec->num_partitions;
      (rec->cache_hit ? hit : miss).push_back(rec->body_end - rec->submit);
    }
    auto& L = w.layer;
    const uint64_t lookups = c1.lookups - c0.lookups;
    L["cache.hit_rate"] =
        lookups == 0 ? 0 : double(c1.hits - c0.hits) / double(lookups);
    L["cache.hit_query_s"] = Median(hit);
    L["cache.miss_query_s"] = Median(miss);
    L["cache.inserts"] = PerOp(double(c1.inserts - c0.inserts), n);
    L["cache.evictions"] = PerOp(double(c1.evictions - c0.evictions), n);
    L["cache.invalidations"] =
        PerOp(double(c1.invalidations - c0.invalidations), n);
    L["cache.revoked_bytes"] =
        PerOp(double(c1.revoked_bytes - c0.revoked_bytes), n);
    L["join.num_partitions"] = PerOp(partitions, n);
    AddBrokerLayers(sched_->broker(), mark, n, &L);
    return w;
  }

  std::string Geometry() const override {
    const uint64_t l3 = HostCacheBytes(3);
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "%u tables x %llu x %u-byte tuples (%.2f MiB per cached table = "
        "%.3fx host L3), %llu probe tuples/query, Zipf(%.1f), update rate "
        "%.2f; cache %.1f MiB holds %u.5 of %u tables; broker budget "
        "%.1f MiB; %u outstanding over %u running",
        spec_.num_tables, (unsigned long long)spec_.build_tuples_per_table,
        spec_.tuple_size, double(entry_bytes_) / kMiB,
        l3 ? double(entry_bytes_) / double(l3) : 0.0,
        (unsigned long long)spec_.probe_tuples_per_query, spec_.zipf_theta,
        spec_.update_rate, double(sched_cfg_.cache_bytes) / kMiB,
        spec_.num_tables / 2 + 1, spec_.num_tables,
        double(sched_cfg_.memory_budget) / kMiB, depth_,
        sched_cfg_.max_concurrent);
    return buf;
  }

  uint64_t InputFingerprint() const override {
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < 64 && i < trace_.size(); ++i) {
      h = (h ^ (trace_[i].table * 2u + trace_[i].is_update)) *
          1099511628211ull;
    }
    return Fingerprint(*catalog_->probe(0),
                       Fingerprint(*catalog_->build(0), h));
  }

 private:
  /// Issues the next trace step: applies its update (catalog version
  /// bump + cache invalidation) on the generator thread, then captures
  /// the inputs, key and expected count of the version current now.
  void Issue(QueryRec& rec, JoinRequest* req, QueryBody* body, Tracer& tr) {
    const ReplayOp& op = trace_[next_++ % trace_.size()];
    if (op.is_update) {
      {
        ScopedSpan s(tr, "workload.update", -1, rec.q);
        catalog_->Update(op.table);
      }
      ScopedSpan s(tr, "cache.invalidate", -1, rec.q);
      sched_->table_cache()->Invalidate(catalog_->relation_id(op.table));
    }
    auto build = catalog_->build(op.table);
    auto probe = catalog_->probe(op.table);
    cache::CacheKey key;
    key.relation_id = catalog_->relation_id(op.table);
    key.version = catalog_->version(op.table);
    key.fingerprint = cache::SchemaFingerprint(build->schema());
    rec.expected = catalog_->expected_matches(op.table);
    rec.input_tuples = build->num_tuples() + probe->num_tuples();
    req->name = QueryName('r', rec.q);
    req->min_grant_bytes = working_set_;
    req->desired_grant_bytes = working_set_;
    *body = [build, probe, key, &tr](QueryContext& ctx,
                                     QueryRec& r) -> StatusOr<uint64_t> {
      RealMemory mm;
      GraceConfig cfg;
      cfg.dynamic_budget = ctx.GrantFn();
      cfg.table_cache = ctx.table_cache();
      cfg.cache_key = key;
      JoinResult result;
      {
        ScopedSpan s(tr, "join.grace", r.body_span, r.q);
        const double start = tr.enabled() ? Now() : 0;
        result = GraceHashJoin(mm, *build, *probe, cfg, nullptr);
        // A hit skips partition and build: its join phase is the probe.
        AddPhases(tr, s.id(), r.q, start,
                  {{"join.partition", result.partition_phase.wall_seconds},
                   {result.cache_hit ? "join.probe" : "join.join",
                    result.join_phase.wall_seconds}});
      }
      r.cache_hit = result.cache_hit;
      r.num_partitions = result.num_partitions;
      return result.output_tuples;
    };
  }

  const Options opts_;
  bool inject_;
  Tracer off_{false};
  ReplaySpec spec_;
  SchedulerConfig sched_cfg_;
  uint32_t depth_ = 0;
  uint64_t entry_bytes_ = 0;
  uint64_t working_set_ = 0;
  std::vector<ReplayOp> trace_;
  size_t next_ = 0;
  std::unique_ptr<ReplayCatalog> catalog_;
  std::unique_ptr<JoinScheduler> sched_;
};

// ---------------------------------------------------------------------------
// sim_join

class SimJoin : public Workload {
 public:
  explicit SimJoin(const Options& opts)
      : opts_(opts), inject_(opts.inject_wrong_count) {
    spec_.tuple_size = 100;
    spec_.num_build_tuples = opts.tiny ? 2000 : 30000;
    spec_.seed = opts.seed;
  }

  // About 45 joins in a 20 s window: 11 beyond p75.
  double TailPercentile() const override { return 0.75; }

  bool Setup() override {
    input_ = std::make_unique<JoinWorkload>(GenerateJoinWorkload(spec_));
    // A budget that cuts the build side into kPartitions partitions: at
    // one output page each, the partition buffers exceed the simulated
    // L2, so the combined partition scheme runs its group-prefetched
    // kernel as well as the join phase's.
    const uint32_t parts = opts_.tiny ? 16 : kPartitions;
    const uint64_t total =
        input_->build.data_bytes() +
        HashTable::EstimateBytes(input_->build.num_tuples());
    config_.memory_budget = (total + parts - 1) / parts;
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    return GraceHashJoin(mm, input_->build, input_->probe, config_, nullptr)
               .output_tuples == input_->expected_matches;
  }

  Window Run(double seconds, Tracer& tr) override {
    Window w;
    const double deadline = Now() + seconds;
    sim::SimStats total;
    double part_cycles = 0, join_cycles = 0, partitions = 0;
    uint64_t tuples = 0;
    do {
      OpRecord op;
      const uint64_t q = w.ops.size() + 1;
      const int64_t root = tr.Open("query", -1, q);
      op.start = Now();
      JoinResult r;
      sim::SimStats stats;
      {
        sim::MemorySim simulator{sim::SimConfig{}};
        SimMemory mm(&simulator);
        {
          ScopedSpan s(tr, "join.grace", root, q);
          const double start = tr.enabled() ? Now() : 0;
          r = GraceHashJoin(mm, input_->build, input_->probe, config_,
                            nullptr);
          AddPhases(tr, s.id(), q, start,
                    {{"join.partition", r.partition_phase.wall_seconds},
                     {"join.join", r.join_phase.wall_seconds}});
        }
        stats = simulator.stats();
      }
      op.end = Now();
      tr.SetEnd(root, op.end);
      op.input_tuples = input_->build.num_tuples() + input_->probe.num_tuples();
      uint64_t expected = input_->expected_matches;
      if (inject_) {
        ++expected;
        inject_ = false;
      }
      if (r.output_tuples != expected) ++w.failed;
      if (first_cycles_per_tuple_ < 0) {
        first_cycles_per_tuple_ =
            double(stats.TotalCycles()) / double(op.input_tuples);
      }
      total += stats;
      part_cycles += double(r.partition_phase.sim.TotalCycles());
      join_cycles += double(r.join_phase.sim.TotalCycles());
      partitions += r.num_partitions;
      tuples += op.input_tuples;
      w.ops.push_back(op);
    } while (Now() < deadline);
    w.start = w.ops.front().start;
    w.seconds = w.ops.back().end - w.start;

    auto& L = w.layer;
    const double t = double(tuples);
    L["sim_cycles_per_tuple"] = first_cycles_per_tuple_;
    L["simcache.busy_cycles"] = double(total.busy_cycles) / t;
    L["simcache.dcache_stall_cycles"] = double(total.dcache_stall_cycles) / t;
    L["simcache.dtlb_stall_cycles"] = double(total.dtlb_stall_cycles) / t;
    L["simcache.other_stall_cycles"] = double(total.other_stall_cycles) / t;
    const double prefetched =
        double(total.prefetch_hidden + total.prefetch_partial);
    L["simcache.prefetch_hidden_frac"] =
        prefetched > 0 ? double(total.prefetch_hidden) / prefetched : 0;
    L["simcache.prefetch_late_frac"] =
        prefetched > 0 ? double(total.prefetch_partial) / prefetched : 0;
    L["simcache.prefetch_evicted_frac"] =
        total.prefetches_issued > 0
            ? double(total.prefetch_evicted_before_use) /
                  double(total.prefetches_issued)
            : 0;
    L["join.sim_partition_cycles"] = part_cycles / t;
    L["join.sim_join_cycles"] = join_cycles / t;
    L["join.num_partitions"] = PerOp(partitions, w.ops.size());
    return w;
  }

  std::string Geometry() const override {
    const sim::SimConfig sc;
    const uint32_t parts = ComputeNumPartitions(
        input_->build.num_tuples(), input_->build.data_bytes(),
        config_.memory_budget);
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "build %.2f MiB + probe %.2f MiB of %u-byte tuples = %.1fx / %.1fx "
        "the simulated %u KiB L2; %u partitions x %u-byte output pages = "
        "%.1fx the simulated L2",
        double(input_->build.data_bytes()) / kMiB,
        double(input_->probe.data_bytes()) / kMiB, spec_.tuple_size,
        double(input_->build.data_bytes()) / sc.l2_size,
        double(input_->probe.data_bytes()) / sc.l2_size, sc.l2_size / 1024,
        parts, config_.page_size,
        double(parts) * config_.page_size / sc.l2_size);
    return buf;
  }

  uint64_t InputFingerprint() const override {
    return Fingerprint(input_->probe, Fingerprint(input_->build));
  }

 private:
  static constexpr uint32_t kPartitions = 256;

  /// Simulated cycles per tuple of the first measured join. Cycle counts
  /// depend on where the join's buffers land in the simulated caches;
  /// the first join after the fixed set-up sees the same heap on every
  /// run of a seed (hjperf turns address randomization off), so this
  /// value repeats exactly. Later joins see the heap their predecessors
  /// left and vary by about 1%.
  double first_cycles_per_tuple_ = -1;

  const Options opts_;
  bool inject_;
  WorkloadSpec spec_;
  GraceConfig config_;
  std::unique_ptr<JoinWorkload> input_;
};

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t HostCacheBytes(int level) {
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream type_file(dir + "type");
    std::ifstream size_file(dir + "size");
    int l = 0;
    std::string type, size;
    if (!(level_file >> l) || !(type_file >> type) || !(size_file >> size)) {
      break;
    }
    if (l != level || type == "Instruction" || size.empty()) continue;
    uint64_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    return bytes;
  }
  return 0;
}

std::unique_ptr<Workload> MakeWorkload(const Options& opts) {
  if (opts.workload == "mem_join") return std::make_unique<MemJoin>(opts);
  if (opts.workload == "disk_storm") return std::make_unique<DiskStorm>(opts);
  if (opts.workload == "zipf_replay") {
    return std::make_unique<ZipfReplay>(opts);
  }
  if (opts.workload == "sim_join") return std::make_unique<SimJoin>(opts);
  return nullptr;
}

}  // namespace perfbench
