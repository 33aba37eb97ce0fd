// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark around its own calls into the library's
// public functions (never inside the library), on the single driving
// thread. Each span records its name, start, end, the span that caused it
// and the op it belongs to; everything stays in memory and is summarized
// once the run ends. A layer's self time is its duration minus the part of
// that interval its child spans cover. With tracing off a Span reads no
// clock and records nothing, so the untraced pass runs the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    long op = -1;
  };

  /// Per span name: how often it ran, its summed duration and self time.
  struct Totals {
    long calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) records_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  /// Spans opened from now on belong to op `op` (a request or call index).
  void set_op(long op) { op_ = op; }

  int Open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(Record{name, Now(), 0, parent, op_});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }

  void Close(int index) {
    records_[static_cast<std::size_t>(index)].end_ns = Now();
    stack_.pop_back();
  }

  /// Totals by span name; self = duration minus direct children's durations
  /// (children of one thread never overlap, so their sum is what they cover).
  std::map<std::string, Totals> Summarize() const {
    std::vector<std::int64_t> child_ns(records_.size(), 0);
    for (const Record& r : records_) {
      if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
    std::map<std::string, Totals> totals;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      Totals& t = totals[r.name];
      ++t.calls;
      t.total_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
      t.self_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns - child_ns[i]);
    }
    return totals;
  }

 private:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  long op_ = -1;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// Scoped span; a no-op when the tracer is off or absent.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Open(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
