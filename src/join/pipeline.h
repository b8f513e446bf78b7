#ifndef HASHJOIN_JOIN_PIPELINE_H_
#define HASHJOIN_JOIN_PIPELINE_H_

// The prefetching schemes, each stated once for any loop. As in the
// paper (§4.1, §5.1), a tuple's work is split into k+1 code stages at
// its k dependent references, and a scheme decides only *when* each
// (tuple, stage) pair runs. Every operation — probe, build, partition,
// aggregate, the disk join's count-only page probe — supplies an Op;
// the drivers below own all scheduling.
//
// An Op supplies:
//
//   using State = ...;                  // per-tuple pipeline state
//   static constexpr uint32_t kStages;  // k, the dependent references
//   bool Begin(State& st, bool prefetch);
//       Code 0: pull the next input tuple into `st`; false at end of
//       input. With `prefetch`, also prefetch what code 1 visits (alone,
//       that is the simple scheme).
//   template <uint32_t S> bool Stage(State& st, uint32_t slot);
//       Code S (1..k), prefetching what code S+1 visits. `slot` is st's
//       index in the driver's state array. Returns false on a
//       read-write conflict: the reference is held by an earlier
//       in-flight tuple.
//   void Serial(State& st);
//       Codes 1..k without prefetching — the baseline/simple body, and
//       how a delayed or waiting tuple completes once its reference is
//       released (and cached).
//   bool Resolve(State& st);
//       Conflict hook: resolve the conflict inline and retry the claim
//       (true), or leave the tuple for the driver to park (false).
//   void Park(State* states, uint32_t slot);
//   template <typename F> void Wake(State* states, State& st, F&& done);
//       The SPP waiting queue threaded through the state ring (§5.3):
//       Park queues states[slot] behind the tuple holding its
//       reference; after st's last stage Wake passes every waiter
//       st's release unblocked to done(waiter), which completes it.
//
// Ops whose stages never conflict derive the hooks from ConflictFree.
// The drivers own the state arrays, the power-of-two ring, the live G/D
// adoption points, drain and termination, and the per-stage overhead
// charges. Stage calls resolve at compile time (ForEachStage); nothing
// is allocated per tuple.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "join/join_common.h"
#include "util/bitops.h"

namespace hashjoin {

/// Conflict hooks for an Op whose stages never conflict.
template <typename State>
struct ConflictFree {
  bool Resolve(State&) { return false; }
  void Park(State*, uint32_t) {}
  template <typename F>
  void Wake(State*, State&, F&&) {}
};

/// Calls f(std::integral_constant<uint32_t, S>{}) for S = 1..K in order.
template <uint32_t K, typename F>
inline void ForEachStage(F&& f) {
  [&]<uint32_t... I>(std::integer_sequence<uint32_t, I...>) {
    (f(std::integral_constant<uint32_t, I + 1>{}), ...);
  }(std::make_integer_sequence<uint32_t, K>{});
}

/// Baseline and simple prefetching: one tuple start to finish per
/// iteration. Simple differs only in a prefetching code 0 — the
/// wholesale input-page prefetch plus a just-in-time prefetch of the
/// first dependent reference, which is why the paper measures only a
/// 1.1-1.2X gain for it (§7.1).
template <typename Op>
void RunSerial(Op& op, bool prefetch) {
  typename Op::State st;
  while (op.Begin(st, prefetch)) op.Serial(st);
}

/// Group prefetching (§4): strip-mine the loop into groups of G tuples
/// and run each code stage for the whole group. A conflicting tuple is
/// delayed to the end of its group, when every in-flight update of the
/// group has finished and its reference is cached, and completes
/// serially there (§4.4). The op's Resolve hook is not asked: as in
/// §4.4, a conflicting tuple always waits for the end of its group.
template <typename MM, typename Op>
void RunGroup(MM& mm, Op& op, const KernelParams& params) {
  const uint32_t overhead = mm.config().cost_stage_overhead_gp;
  uint32_t group = params.EffectiveGroupSize();
  std::vector<typename Op::State> states(group);
  std::vector<uint32_t> delayed;
  bool more = true;
  while (more) {
    // Group boundary: the safe point to adopt a live-tuned G — no tuple
    // is mid-pipeline, so resizing the state array loses nothing.
    const uint32_t next_group = params.EffectiveGroupSize();
    if (next_group != group) {
      group = next_group;
      states.resize(group);
    }
    uint32_t g = 0;
    while (g < group) {
      mm.Busy(overhead);
      if (!op.Begin(states[g], /*prefetch=*/true)) {
        more = false;
        break;
      }
      ++g;
    }
    delayed.clear();
    ForEachStage<Op::kStages>([&](auto stage) {
      for (uint32_t i = 0; i < g; ++i) {
        mm.Busy(overhead);
        if (!op.template Stage<decltype(stage)::value>(states[i], i)) {
          delayed.push_back(i);
        }
      }
    });
    for (uint32_t i : delayed) {
      mm.Busy(overhead);
      op.Serial(states[i]);
    }
  }
}

/// Software-pipelined prefetching (§5): iteration j runs code 0 of tuple
/// j, code 1 of tuple j-D, ..., code k of tuple j-kD, with the per-tuple
/// states in a power-of-two circular array indexed by bit masking
/// (§5.3). A conflict the op cannot resolve inline parks the tuple on
/// the op's waiting queue; the release in the holder's last stage wakes
/// it.
template <typename MM, typename Op>
void RunPipelined(MM& mm, Op& op, const KernelParams& params) {
  using State = typename Op::State;
  constexpr uint64_t k = Op::kStages;
  const uint32_t overhead = mm.config().cost_stage_overhead_spp;
  // Live-tuned D is adopted once per pass: the ring size, the stage
  // offsets and the waiting queues' state indices all depend on it.
  const uint64_t d = params.EffectiveDistance();
  const uint64_t ring = NextPowerOfTwo(k * d + 1);
  const uint64_t mask = ring - 1;
  std::vector<State> states(ring);
  auto complete = [&](State& waiter) {
    mm.Busy(overhead);
    op.Serial(waiter);
  };

  // Codes 1..k of iteration j, for the tuples issued before `n`.
  auto run_stages = [&](uint64_t j, uint64_t n) {
    ForEachStage<Op::kStages>([&](auto stage) {
      constexpr uint32_t s = decltype(stage)::value;
      if (j < s * d || j - s * d >= n) return;
      mm.Busy(overhead);
      const uint32_t slot = uint32_t((j - s * d) & mask);
      State& st = states[slot];
      if (!op.template Stage<s>(st, slot) && !op.Resolve(st)) {
        op.Park(states.data(), slot);
      }
      if constexpr (s == k) op.Wake(states.data(), st, complete);
    });
  };

  // Issue: code 0 of tuple j, then codes 1..k of the earlier tuples. The
  // code-0 slot overhead is charged only while issuing, so the drain
  // does not inflate short inputs.
  uint64_t j = 0;
  while (true) {
    mm.Busy(overhead);
    if (!op.Begin(states[j & mask], /*prefetch=*/true)) break;
    run_stages(j, UINT64_MAX);
    ++j;
  }
  // Drain: the last tuple (n-1) finishes code k at j = n - 1 + kD; an
  // empty input needs no drain at all.
  const uint64_t n = j;
  for (; n > 0 && j < n + k * d; ++j) run_stages(j, n);
}

}  // namespace hashjoin

// The coroutine driver compiles only where the toolchain has C++20
// coroutines (the CMake probe behind HASHJOIN_HAS_COROUTINES).
#if HASHJOIN_HAS_COROUTINES

#include <coroutine>
#include <exception>

namespace hashjoin {

/// Minimal coroutine task for the kernel chains: lazily started (the
/// scheduler's first Resume runs code 0), suspends at co_await
/// NextStage{}, and keeps the frame alive after completion so done() is
/// observable. Move-only; the destructor frees the frame.
class KernelCoro {
 public:
  /// The stage-boundary awaiter. hjlint's prefetch-stage-discipline rule
  /// treats a `co_await` line as the end of a stage segment.
  using NextStage = std::suspend_always;

  struct promise_type {
    KernelCoro get_return_object() {
      return KernelCoro(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  KernelCoro() = default;
  explicit KernelCoro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  KernelCoro(KernelCoro&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  KernelCoro& operator=(KernelCoro&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  KernelCoro(const KernelCoro&) = delete;
  KernelCoro& operator=(const KernelCoro&) = delete;
  ~KernelCoro() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return !handle_ || handle_.done(); }

  /// Runs the chain up to its next co_await (one stage).
  void Resume() { handle_.resume(); }

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Round-robin scheduler over `width` chains: every live chain executes
/// exactly one stage per sweep, so a chain that prefetched and suspended
/// gets width-1 stages of other chains' work between its prefetch and
/// its dependent access. Charges cost_stage_overhead_coro per resume —
/// the scheduler dispatch plus the frame switch a suspension implies.
template <typename MM, typename MakeChain>
void RunCoroPipeline(MM& mm, uint32_t width, MakeChain&& make_chain) {
  width = std::max(1u, width);
  const auto& cfg = mm.config();
  std::vector<KernelCoro> chains;
  chains.reserve(width);
  for (uint32_t i = 0; i < width; ++i) chains.push_back(make_chain(i));
  uint32_t live = width;
  while (live > 0) {
    for (KernelCoro& chain : chains) {
      if (chain.done()) continue;
      mm.Busy(cfg.cost_stage_overhead_coro);
      chain.Resume();
      if (chain.done()) --live;
    }
  }
}

/// One chain: pulls tuples from the op's shared input until it runs
/// out, suspending at every stage boundary. A chain's code k and its
/// next tuple's code 0 share a resume, as in AMAC's FINISHED transition.
/// A conflict the op cannot resolve inline suspends and retries: the
/// holder is resumed before the retry — round-robin guarantees it — and
/// its last stage releases the reference, so the retry loop terminates.
/// This is the coroutine analogue of §5.3's waiting queue, with the
/// scheduler's sweep standing in for the queue links.
template <typename Op>
KernelCoro OpChain(Op& op, typename Op::State& st, uint32_t slot) {
  static_assert(Op::kStages >= 1 && Op::kStages <= 3,
                "OpChain unrolls at most three dependent references");
  while (op.Begin(st, /*prefetch=*/true)) {
    co_await KernelCoro::NextStage{};
    while (!op.template Stage<1>(st, slot) && !op.Resolve(st)) {
      co_await KernelCoro::NextStage{};
    }
    if constexpr (Op::kStages >= 2) {
      co_await KernelCoro::NextStage{};
      while (!op.template Stage<2>(st, slot) && !op.Resolve(st)) {
        co_await KernelCoro::NextStage{};
      }
    }
    if constexpr (Op::kStages >= 3) {
      co_await KernelCoro::NextStage{};
      while (!op.template Stage<3>(st, slot) && !op.Resolve(st)) {
        co_await KernelCoro::NextStage{};
      }
    }
  }
}

/// Coroutine interleaving (AMAC-style): W chains over one shared input.
/// W is the effective group size — the same Theorem-1 sizing GP uses: W
/// concurrent chains hide the latency G group slots do — fixed for the
/// pass; live overrides apply at pass start.
template <typename MM, typename Op>
void RunCoro(MM& mm, Op& op, const KernelParams& params) {
  const uint32_t width = params.EffectiveGroupSize();
  std::vector<typename Op::State> states(width);
  RunCoroPipeline(mm, width,
                  [&](uint32_t i) { return OpChain(op, states[i], i); });
}

}  // namespace hashjoin

#else  // !HASHJOIN_HAS_COROUTINES

namespace hashjoin {

/// Never reached: RequireSchemeCompiled refuses kCoro on a toolchain
/// without C++20 coroutines before any driver runs.
template <typename MM, typename Op>
void RunCoro(MM&, Op&, const KernelParams&) {}

}  // namespace hashjoin

#endif  // HASHJOIN_HAS_COROUTINES

#endif  // HASHJOIN_JOIN_PIPELINE_H_
