#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[size_t(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[size_t(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

}  // namespace

int64_t Tracer::Add(const char* name, double start, double end,
                    int64_t parent, uint64_t query) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.query = query;
  s.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return int64_t(spans_.size()) - 1;
}

int64_t Tracer::Open(const char* name, int64_t parent, uint64_t query) {
  if (!enabled_) return -1;
  const double t = Now();
  return Add(name, t, t, parent, query);
}

void Tracer::Close(int64_t id) {
  if (id >= 0) SetEnd(id, Now());
}

void Tracer::SetEnd(int64_t id, double end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[size_t(id)].end = end;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    // Query tracks first, then one track per recording thread.
    const uint64_t track =
        s.query != 0 ? s.query : (uint64_t(1) << 32) + s.thread;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"query\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), layer.c_str(),
                 s.start * 1e6, (s.end - s.start) * 1e6,
                 (unsigned long long)track, i, (long long)s.parent,
                 (unsigned long long)s.query);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
