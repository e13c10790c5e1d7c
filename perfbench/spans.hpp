// Host-time spans recorded from the benchmark's own code, around calls into
// each PERSEAS layer, plus the TxnEngine decorator that records them.
//
// A span is (name, start, end, parent, transaction id).  Spans live in
// per-thread lanes in memory and are written out when the run ends.  A
// span's self time is its duration minus the time its child spans cover,
// which is how workload time is split from core time without touching the
// library: the workload's own span encloses the engine-call spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload/engine.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds.
[[nodiscard]] inline std::int64_t host_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";     ///< a string literal, "<layer>.<operation>"
  std::int32_t parent = -1;  ///< index in the same lane; -1 = root
  bool failed = false;       ///< left by an exception, or an aborted attempt
  std::uint64_t txn = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct children

  [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
  [[nodiscard]] std::int64_t self_ns() const noexcept { return duration_ns() - child_ns; }
};

/// One thread's span buffer.  Spans nest on a stack.  A lane is touched by
/// one thread at a time: worker w owns the lane of engine slot w, and the
/// main thread uses lane 0 only while no worker runs.  A full lane drops
/// new spans (counted) instead of growing, so recording never reallocates.
class Lane {
 public:
  explicit Lane(std::size_t capacity);

  /// Opens a span under the innermost open one (dropped when the lane is
  /// full).
  void open(const char* name, std::uint64_t txn);
  /// Closes the innermost open span.
  void close(bool failed);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; with a null lane it records nothing.  A span left by an
/// exception is marked failed.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, std::uint64_t txn = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_;
  int exceptions_;
};

class SpanRecorder {
 public:
  SpanRecorder(std::size_t lanes, std::size_t capacity_per_lane);

  [[nodiscard]] Lane* lane(std::size_t i) { return &lanes_.at(i); }
  /// True once any lane has dropped a span: the traced phase should end.
  [[nodiscard]] bool full() const noexcept;
  [[nodiscard]] std::uint64_t recorded() const noexcept;

  /// Durations (µs) of every span named `name` that was not failed.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  /// Summed self time (ns) of every span named `name`.
  [[nodiscard]] std::int64_t self_ns(std::string_view name) const;

  /// Writes every span as tab-separated rows (lane, index, parent, txn,
  /// name, start_ns, end_ns, self_ns, failed).  Throws on I/O failure.
  void write_tsv(const std::string& path) const;

 private:
  std::vector<Lane> lanes_;
};

/// Forwards every TxnEngine call to `inner`.  It always measures each
/// slot's transaction latency (first begin of the transaction to the
/// return of its commit, retries included) and the host time of aborted
/// attempts.  With a recorder it also records a span per call, nested in a
/// "workload.attempt" span from begin to commit or abort.
class TracedEngine final : public perseas::workload::TxnEngine {
 public:
  explicit TracedEngine(perseas::workload::TxnEngine& inner);

  /// Attach (or detach with nullptr) a recorder; only between batches.
  void set_recorder(SpanRecorder* recorder) noexcept { recorder_ = recorder; }

  /// Per-slot host latencies (ns) of committed transactions; cleared by
  /// take_latencies().
  [[nodiscard]] std::vector<std::int64_t> take_latencies();
  /// Host ns spent in attempts that ended in abort, and their count.
  [[nodiscard]] std::int64_t wasted_ns() const noexcept;
  [[nodiscard]] std::uint64_t aborted_attempts() const noexcept;

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] perseas::netram::Cluster& cluster() noexcept override { return inner_->cluster(); }
  [[nodiscard]] perseas::netram::NodeId app_node() const noexcept override {
    return inner_->app_node();
  }
  [[nodiscard]] std::span<std::byte> db() override { return inner_->db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return inner_->db_size(); }
  [[nodiscard]] std::uint32_t max_open_txns() const noexcept override {
    return inner_->max_open_txns();
  }

  void begin() override;
  void set_range(std::uint64_t offset, std::uint64_t size) override;
  void commit() override;
  void abort() override;
  void begin_slot(std::uint32_t slot) override;
  void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override;
  void read_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override;
  void commit_slot(std::uint32_t slot) override;
  void abort_slot(std::uint32_t slot) override;

 private:
  /// One slot's bookkeeping, padded so workers never share a cache line.
  struct alignas(64) SlotState {
    std::int64_t txn_start = 0;  ///< first begin of the open transaction; 0 = none
    std::int64_t attempt_start = 0;
    std::uint64_t txn_seq = 0;
    std::vector<std::int64_t> latency_ns;
    std::int64_t wasted_ns = 0;
    std::uint64_t aborts = 0;
  };

  [[nodiscard]] Lane* lane(std::uint32_t slot) {
    return recorder_ != nullptr ? recorder_->lane(slot) : nullptr;
  }
  [[nodiscard]] std::uint64_t txn_id(std::uint32_t slot) const noexcept {
    return (static_cast<std::uint64_t>(slot) << 40) | slots_[slot].txn_seq;
  }
  void before_begin(std::uint32_t slot);
  void after_commit(std::uint32_t slot);
  void after_abort(std::uint32_t slot);

  perseas::workload::TxnEngine* inner_;
  SpanRecorder* recorder_ = nullptr;
  std::vector<SlotState> slots_;
};

}  // namespace perfbench
