#include "workload/debit_credit.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/clock.hpp"

namespace perseas::workload {

namespace {

template <typename T>
T read_at(std::span<std::byte> db, std::uint64_t offset) {
  T v;
  std::memcpy(&v, db.data() + offset, sizeof v);
  return v;
}

template <typename T>
void write_at(std::span<std::byte> db, std::uint64_t offset, const T& v) {
  std::memcpy(db.data() + offset, &v, sizeof v);
}

}  // namespace

std::uint64_t DebitCredit::required_db_size(const DebitCreditOptions& o) {
  const std::uint64_t rows = static_cast<std::uint64_t>(o.branches) +
                             static_cast<std::uint64_t>(o.branches) * o.tellers_per_branch +
                             static_cast<std::uint64_t>(o.branches) * o.accounts_per_branch;
  return rows * kRowBytes + static_cast<std::uint64_t>(o.history_capacity) * kHistoryBytes +
         sizeof(std::uint64_t);  // history cursor
}

DebitCredit::DebitCredit(TxnEngine& engine, const DebitCreditOptions& options,
                         std::uint64_t seed)
    : engine_(&engine), options_(options), rng_(seed) {
  if (engine.db_size() < required_db_size(options)) {
    throw std::invalid_argument("DebitCredit: database too small for these options");
  }
}

std::uint64_t DebitCredit::branch_offset(std::uint64_t b) const { return b * kRowBytes; }

std::uint64_t DebitCredit::teller_offset(std::uint64_t t) const {
  return (options_.branches + t) * kRowBytes;
}

std::uint64_t DebitCredit::account_offset(std::uint64_t a) const {
  return (options_.branches + static_cast<std::uint64_t>(options_.branches) *
                                  options_.tellers_per_branch +
          a) *
         kRowBytes;
}

std::uint64_t DebitCredit::history_offset(std::uint64_t h) const {
  return account_offset(static_cast<std::uint64_t>(options_.branches) *
                        options_.accounts_per_branch) +
         h * kHistoryBytes;
}

std::uint64_t DebitCredit::cursor_offset() const {
  return history_offset(options_.history_capacity);
}

void DebitCredit::load() {
  const std::uint64_t size = required_db_size(options_);
  engine_->begin();
  engine_->set_range(0, size);
  auto db = engine_->db();
  std::memset(db.data(), 0, size);

  const auto init_row = [&](std::uint64_t offset, std::uint64_t id) {
    Row row{};
    row.id = id;
    row.balance = 0;
    write_at(db, offset, row);
  };
  const std::uint64_t tellers =
      static_cast<std::uint64_t>(options_.branches) * options_.tellers_per_branch;
  const std::uint64_t accounts =
      static_cast<std::uint64_t>(options_.branches) * options_.accounts_per_branch;
  for (std::uint64_t b = 0; b < options_.branches; ++b) init_row(branch_offset(b), b);
  for (std::uint64_t t = 0; t < tellers; ++t) init_row(teller_offset(t), t);
  for (std::uint64_t a = 0; a < accounts; ++a) init_row(account_offset(a), a);

  engine_->cluster().charge_local_memcpy(engine_->app_node(), size);
  engine_->commit();
  history_cursor_ = 0;
  total_delta_ = 0;
}

sim::SimDuration DebitCredit::run_one() {
  const sim::StopWatch watch(engine_->cluster().clock());

  const std::uint64_t tellers =
      static_cast<std::uint64_t>(options_.branches) * options_.tellers_per_branch;
  const std::uint64_t accounts =
      static_cast<std::uint64_t>(options_.branches) * options_.accounts_per_branch;
  const std::uint64_t teller = rng_.below(tellers);
  const std::uint64_t branch = teller / options_.tellers_per_branch;
  const std::uint64_t account = rng_.below(accounts);
  const std::int64_t delta = rng_.between(-99'999, 99'999);

  engine_->begin();
  auto db = engine_->db();

  const auto adjust_balance = [&](std::uint64_t row_offset) {
    const std::uint64_t field = row_offset + offsetof(Row, balance);
    engine_->set_range(row_offset, kRowBytes);
    auto balance = read_at<std::int64_t>(db, field);
    balance += delta;
    write_at(db, field, balance);
  };
  adjust_balance(account_offset(account));
  adjust_balance(teller_offset(teller));
  adjust_balance(branch_offset(branch));

  // Append to the history file (circular).
  const std::uint64_t slot = history_cursor_ % options_.history_capacity;
  engine_->set_range(history_offset(slot), kHistoryBytes);
  History h{};
  h.account = account;
  h.teller = teller;
  h.branch = branch;
  h.delta = delta;
  write_at(db, history_offset(slot), h);
  engine_->set_range(cursor_offset(), sizeof(std::uint64_t));
  write_at(db, cursor_offset(), history_cursor_ + 1);

  engine_->cluster().charge_cpu(engine_->app_node(), options_.app_compute);
  engine_->commit();

  ++history_cursor_;
  total_delta_ += delta;
  return watch.elapsed();
}

DebitCredit::TxnPlan DebitCredit::plan_partitioned(std::uint32_t part, std::uint32_t parts,
                                                   std::uint64_t seq, sim::Rng& rng,
                                                   bool raid_partition0) const {
  if (parts == 0 || part >= parts) {
    throw std::invalid_argument("DebitCredit: partition out of range");
  }
  if (parts > options_.branches || parts > options_.history_capacity) {
    throw std::invalid_argument("DebitCredit: more partitions than branches/history to split");
  }
  TxnPlan plan;
  if (raid_partition0) {
    plan.branch = 0;  // partition 0's first branch — guaranteed contested
  } else {
    const std::uint64_t owned = (options_.branches - part + parts - 1) / parts;
    plan.branch = part + static_cast<std::uint64_t>(parts) * rng.below(owned);
  }
  plan.teller =
      plan.branch * options_.tellers_per_branch + rng.below(options_.tellers_per_branch);
  plan.account =
      plan.branch * options_.accounts_per_branch + rng.below(options_.accounts_per_branch);
  plan.delta = rng.between(-99'999, 99'999);
  // Disjoint history windows: partition p owns [p*window, (p+1)*window).
  const std::uint64_t window = options_.history_capacity / parts;
  plan.history_slot = static_cast<std::uint64_t>(part) * window + seq % window;
  return plan;
}

void DebitCredit::apply_plan(std::uint32_t slot, const TxnPlan& plan) const {
  auto db = engine_->db();
  const auto adjust_balance = [&](std::uint64_t row_offset) {
    const std::uint64_t field = row_offset + offsetof(Row, balance);
    engine_->set_range_slot(slot, row_offset, kRowBytes);
    auto balance = read_at<std::int64_t>(db, field);
    balance += plan.delta;
    write_at(db, field, balance);
  };
  adjust_balance(account_offset(plan.account));
  adjust_balance(teller_offset(plan.teller));
  adjust_balance(branch_offset(plan.branch));

  engine_->set_range_slot(slot, history_offset(plan.history_slot), kHistoryBytes);
  History h{};
  h.account = plan.account;
  h.teller = plan.teller;
  h.branch = plan.branch;
  h.delta = plan.delta;
  write_at(db, history_offset(plan.history_slot), h);
}

WorkloadResult DebitCredit::run(std::uint64_t n) {
  WorkloadResult result;
  const sim::StopWatch watch(engine_->cluster().clock());
  for (std::uint64_t i = 0; i < n; ++i) result.latency.record(run_one());
  result.transactions = n;
  result.elapsed = watch.elapsed();
  return result;
}

void DebitCredit::check_invariants() const {
  auto db = engine_->db();
  const std::uint64_t tellers =
      static_cast<std::uint64_t>(options_.branches) * options_.tellers_per_branch;
  const std::uint64_t accounts =
      static_cast<std::uint64_t>(options_.branches) * options_.accounts_per_branch;

  std::int64_t branch_sum = 0;
  std::int64_t teller_sum = 0;
  std::int64_t account_sum = 0;
  for (std::uint64_t b = 0; b < options_.branches; ++b) {
    branch_sum += read_at<std::int64_t>(db, branch_offset(b) + offsetof(Row, balance));
  }
  for (std::uint64_t t = 0; t < tellers; ++t) {
    teller_sum += read_at<std::int64_t>(db, teller_offset(t) + offsetof(Row, balance));
  }
  for (std::uint64_t a = 0; a < accounts; ++a) {
    account_sum += read_at<std::int64_t>(db, account_offset(a) + offsetof(Row, balance));
  }
  if (branch_sum != total_delta_ || teller_sum != total_delta_ || account_sum != total_delta_) {
    throw std::logic_error("DebitCredit: balance invariant violated");
  }
  const auto cursor = read_at<std::uint64_t>(db, cursor_offset());
  if (cursor != history_cursor_) {
    throw std::logic_error("DebitCredit: history cursor does not match transaction count");
  }
}

}  // namespace perseas::workload
