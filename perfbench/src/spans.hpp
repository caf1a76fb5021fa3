// In-memory trace spans recorded by the benchmark around its own calls into
// the program's layers. Each thread records into its own SpanBuffer (no
// locking on the hot path); buffers are merged into one SpanLog when the
// phase ends, and the log is written out when the benchmark exits.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;      ///< index into the same log, -1 = root
  std::uint64_t request = 0;     ///< shared by the spans of one request
};

/// Per-thread span recorder. When disabled every call is a no-op, so the
/// untraced runs pay one branch per boundary.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its handle (-1 when disabled).
  std::int32_t open(const char* name, std::uint64_t request,
                    std::int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t handle) {
    if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end_ns = now_ns();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, const char* name, std::uint64_t request,
             std::int32_t parent = -1)
      : buf_(buf), handle_(buf.open(name, request, parent)) {}
  ~ScopedSpan() { buf_.close(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t handle() const { return handle_; }

 private:
  SpanBuffer& buf_;
  std::int32_t handle_;
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< durations minus the part child spans cover
};

/// All spans of a run, merged from the per-thread buffers.
class SpanLog {
 public:
  void merge(const SpanBuffer& buf) {
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (Span s : buf.spans()) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals clipped to the span.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      SelfTime& t = out[s.name];
      ++t.count;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(covered) * 1e-9;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
