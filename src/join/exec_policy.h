#ifndef HASHJOIN_JOIN_EXEC_POLICY_H_
#define HASHJOIN_JOIN_EXEC_POLICY_H_

// Execution-policy dispatch: one Scheme switch (RunScheme) choosing the
// driver (join/pipeline.h), and one thin entry point per operation
// (partition, build, probe, aggregate) that builds the operation's Op and
// hands it over. The stage functions fix *what* a tuple's visit does, a
// driver fixes *when* each stage runs relative to other tuples — the
// RealMemory/SimMemory split one level up.
//
// The coroutine driver compiles only on toolchains with C++20 coroutine
// support; elsewhere Scheme::kCoro reports unavailable (SchemeAvailable)
// and dispatching it dies with a check failure rather than silently
// falling back to a different policy.

#include "join/aggregate_kernels.h"
#include "join/build_kernels.h"
#include "join/join_common.h"
#include "join/partition_kernels.h"
#include "join/pipeline.h"
#include "join/probe_kernels.h"
#include "util/logging.h"

namespace hashjoin {

/// Dies with a diagnostic when a scheme that did not compile into this
/// binary is dispatched (today only kCoro, on pre-coroutine toolchains).
inline void RequireSchemeCompiled(Scheme scheme) {
  HJ_CHECK(SchemeAvailable(scheme))
      << "scheme '" << SchemeName(scheme)
      << "' was not compiled into this binary (toolchain lacks C++20 "
         "coroutines)";
}

/// The one Scheme switch: runs `op` under `scheme`'s driver
/// (join/pipeline.h).
template <typename MM, typename Op>
void RunScheme(MM& mm, Scheme scheme, Op& op, const KernelParams& params) {
  RequireSchemeCompiled(scheme);
  switch (scheme) {
    case Scheme::kBaseline:
      return RunSerial(op, /*prefetch=*/false);
    case Scheme::kSimple:
      return RunSerial(op, /*prefetch=*/true);
    case Scheme::kGroup:
      return RunGroup(mm, op, params);
    case Scheme::kSwp:
      return RunPipelined(mm, op, params);
    case Scheme::kCoro:
      return RunCoro(mm, op, params);
  }
}

/// Partitions `input` (the pages in `range`) into the sinks under
/// `scheme`, then flushes every sink's partial page.
template <typename MM>
void PartitionRelation(MM& mm, Scheme scheme, const Relation& input,
                       PartitionSinkSet* sinks, uint32_t num_partitions,
                       const KernelParams& params,
                       uint32_t hash_divisor = 1,
                       PageRange range = PageRange{}) {
  PartitionContext<MM> ctx(&mm, sinks, num_partitions, input, hash_divisor,
                           range);
  PartitionOp<MM> op(ctx);
  RunScheme(mm, scheme, op, params);
  sinks->FinalFlushAll();
}

/// Combined scheme (§7.4): simple prefetching while the output buffers
/// fit in the L2 cache, `large_scheme` beyond.
template <typename MM>
void PartitionCombined(MM& mm, const Relation& input,
                       PartitionSinkSet* sinks, uint32_t num_partitions,
                       const KernelParams& params, uint32_t l2_bytes,
                       Scheme large_scheme = Scheme::kGroup,
                       uint32_t hash_divisor = 1,
                       PageRange range = PageRange{}) {
  uint64_t working_set =
      uint64_t(num_partitions) *
      (sinks->page_size() + sizeof(PartitionSink));
  // Only a fraction of L2 is effectively available to the output
  // buffers: the input stream and miscellaneous structures continuously
  // pollute it (the paper's "other miscellaneous data structures").
  const Scheme scheme =
      working_set <= l2_bytes / 4 ? Scheme::kSimple : large_scheme;
  PartitionRelation(mm, scheme, input, sinks, num_partitions, params,
                    hash_divisor, range);
}

/// Builds `ht` from `build` under `scheme`.
template <typename MM>
void BuildPartition(MM& mm, Scheme scheme, const Relation& build,
                    HashTable* ht, const KernelParams& params) {
  BuildContext<MM> ctx(&mm, ht, build, params.hash_mode);
  BuildOp<MM> op(ctx);
  RunScheme(mm, scheme, op, params);
}

/// Probes `ht` with `probe` under `scheme`, writing the joined tuples
/// to `out` (null: count only, through a recycled staging page); returns
/// the output count. `stats` (optional) surfaces the
/// pass's output/claim accounting for the scheme-equivalence tests.
template <typename MM>
uint64_t ProbePartition(MM& mm, Scheme scheme, const Relation& probe,
                        const HashTable& ht, uint32_t build_tuple_size,
                        const KernelParams& params, Relation* out,
                        ProbeStats* stats = nullptr) {
  ProbeContext<MM> ctx(&mm, &ht, build_tuple_size,
                       probe.schema().fixed_size(), probe, out, params);
  ProbeOp<MM> op(ctx);
  RunScheme(mm, scheme, op, params);
  return FinishProbe(ctx, stats);
}

/// Aggregates `input` into `agg` under `scheme`: COUNT(*) and SUM of the
/// 8-byte value at `value_offset`, grouped by the 4-byte key.
template <typename MM>
void AggregateRelation(MM& mm, Scheme scheme, const Relation& input,
                       uint32_t value_offset, HashAggTable* agg,
                       const KernelParams& params) {
  AggregateOp<MM> op(mm, input, value_offset, agg);
  RunScheme(mm, scheme, op, params);
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_EXEC_POLICY_H_
