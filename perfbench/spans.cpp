#include "spans.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>

namespace perfbench {

Lane::Lane(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
  stack_.reserve(64);
}

void Lane::open(const char* name, std::uint64_t txn) {
  std::int32_t index = -1;
  if (spans_.size() < capacity_) {
    index = static_cast<std::int32_t>(spans_.size());
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.txn = txn;
    s.start_ns = host_ns();
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  stack_.push_back(index);
}

void Lane::close(bool failed) {
  if (stack_.empty()) return;
  const std::int32_t index = stack_.back();
  stack_.pop_back();
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = host_ns();
  s.failed = failed;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.duration_ns();
}

ScopedSpan::ScopedSpan(Lane* lane, const char* name, std::uint64_t txn)
    : lane_(lane), exceptions_(std::uncaught_exceptions()) {
  if (lane_ != nullptr) lane_->open(name, txn);
}

ScopedSpan::~ScopedSpan() {
  if (lane_ != nullptr) lane_->close(std::uncaught_exceptions() > exceptions_);
}

SpanRecorder::SpanRecorder(std::size_t lanes, std::size_t capacity_per_lane) {
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(capacity_per_lane);
}

bool SpanRecorder::full() const noexcept {
  for (const Lane& l : lanes_) {
    if (l.dropped() != 0) return true;
  }
  return false;
}

std::uint64_t SpanRecorder::recorded() const noexcept {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.spans().size();
  return n;
}

std::vector<double> SpanRecorder::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans()) {
      if (s.end_ns != 0 && name == s.name && !s.failed) {
        out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
      }
    }
  }
  return out;
}

std::int64_t SpanRecorder::self_ns(std::string_view name) const {
  std::int64_t total = 0;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans()) {
      if (s.end_ns != 0 && name == s.name) total += s.self_ns();
    }
  }
  return total;
}

void SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perfbench: cannot write spans to " + path);
  std::fputs("lane\tindex\tparent\ttxn\tname\tstart_ns\tend_ns\tself_ns\tfailed\n", f);
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    const auto& spans = lanes_[li].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%llu\t%s\t%lld\t%lld\t%lld\t%d\n", li, i, s.parent,
                   static_cast<unsigned long long>(s.txn), s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.self_ns()), s.failed ? 1 : 0);
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("perfbench: cannot write spans to " + path);
}

TracedEngine::TracedEngine(perseas::workload::TxnEngine& inner)
    : inner_(&inner), slots_(inner.max_open_txns()) {}

std::vector<std::int64_t> TracedEngine::take_latencies() {
  std::vector<std::int64_t> out;
  for (SlotState& s : slots_) {
    out.insert(out.end(), s.latency_ns.begin(), s.latency_ns.end());
    s.latency_ns.clear();
  }
  return out;
}

std::int64_t TracedEngine::wasted_ns() const noexcept {
  std::int64_t total = 0;
  for (const SlotState& s : slots_) total += s.wasted_ns;
  return total;
}

std::uint64_t TracedEngine::aborted_attempts() const noexcept {
  std::uint64_t total = 0;
  for (const SlotState& s : slots_) total += s.aborts;
  return total;
}

void TracedEngine::before_begin(std::uint32_t slot) {
  SlotState& s = slots_.at(slot);
  const std::int64_t now = host_ns();
  if (s.txn_start == 0) {
    s.txn_start = now;
    ++s.txn_seq;
  }
  s.attempt_start = now;
  if (Lane* l = lane(slot)) l->open("workload.attempt", txn_id(slot));
}

void TracedEngine::after_commit(std::uint32_t slot) {
  SlotState& s = slots_[slot];
  s.latency_ns.push_back(host_ns() - s.txn_start);
  s.txn_start = 0;
  if (Lane* l = lane(slot)) l->close(false);
}

void TracedEngine::after_abort(std::uint32_t slot) {
  SlotState& s = slots_[slot];
  s.wasted_ns += host_ns() - s.attempt_start;
  ++s.aborts;
  if (Lane* l = lane(slot)) l->close(true);
}

void TracedEngine::begin() {
  before_begin(0);
  try {
    const ScopedSpan span(lane(0), "core.begin", txn_id(0));
    inner_->begin();
  } catch (...) {
    after_abort(0);
    throw;
  }
}

void TracedEngine::set_range(std::uint64_t offset, std::uint64_t size) {
  const ScopedSpan span(lane(0), "core.set_range", txn_id(0));
  inner_->set_range(offset, size);
}

void TracedEngine::commit() {
  {
    const ScopedSpan span(lane(0), "core.commit", txn_id(0));
    inner_->commit();
  }
  after_commit(0);
}

void TracedEngine::abort() {
  {
    const ScopedSpan span(lane(0), "core.abort", txn_id(0));
    inner_->abort();
  }
  after_abort(0);
}

void TracedEngine::begin_slot(std::uint32_t slot) {
  before_begin(slot);
  try {
    const ScopedSpan span(lane(slot), "core.begin", txn_id(slot));
    inner_->begin_slot(slot);
  } catch (...) {
    after_abort(slot);
    throw;
  }
}

void TracedEngine::set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) {
  const ScopedSpan span(lane(slot), "core.set_range", txn_id(slot));
  inner_->set_range_slot(slot, offset, size);
}

void TracedEngine::read_range_slot(std::uint32_t slot, std::uint64_t offset,
                                   std::uint64_t size) {
  const ScopedSpan span(lane(slot), "core.read_range", txn_id(slot));
  inner_->read_range_slot(slot, offset, size);
}

void TracedEngine::commit_slot(std::uint32_t slot) {
  {
    const ScopedSpan span(lane(slot), "core.commit", txn_id(slot));
    inner_->commit_slot(slot);
  }
  after_commit(slot);
}

void TracedEngine::abort_slot(std::uint32_t slot) {
  {
    const ScopedSpan span(lane(slot), "core.abort", txn_id(slot));
    inner_->abort_slot(slot);
  }
  after_abort(slot);
}

}  // namespace perfbench
