// The "order-entry" benchmark of the paper's Table 1 — a TPC-C style
// workload ("follows TPC-C and models the activities of a wholesale
// supplier").  As in the Rio/Vista benchmark suite the paper borrows, only
// the dominant new-order transaction is modelled: it reads item prices,
// advances the district's order counter, decrements stock for 5..15 order
// lines, and inserts the order header and lines.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "workload/engine.hpp"
#include "workload/synthetic.hpp"  // WorkloadResult
#include "workload/zipf.hpp"

namespace perseas::workload {

struct OrderEntryOptions {
  std::uint32_t warehouses = 2;
  std::uint32_t districts_per_warehouse = 10;
  std::uint32_t items = 5'000;
  /// Capacity of the circular order store, in orders.
  std::uint32_t order_capacity = 4'096;
  /// Skew of item popularity (0 < theta < 1; TPC-C accesses are skewed).
  double item_skew = 0.6;
  /// Application-side compute per transaction.
  sim::SimDuration app_compute = sim::us(5.0);
};

class OrderEntry {
 public:
  static constexpr std::uint32_t kMaxLines = 15;
  static constexpr std::uint32_t kMinLines = 5;

  struct DistrictRow {
    std::uint64_t next_order_id;
    std::int64_t ytd;  // year-to-date revenue, scaled cents
    std::byte filler[48];
  };
  static_assert(sizeof(DistrictRow) == 64);

  struct ItemRow {
    std::uint64_t id;
    std::int64_t price;  // cents
    std::byte filler[16];
  };
  static_assert(sizeof(ItemRow) == 32);

  struct StockRow {
    std::int64_t quantity;
    std::int64_t ytd;
    std::uint64_t order_count;
    std::byte filler[8];
  };
  static_assert(sizeof(StockRow) == 32);

  struct OrderHeader {
    std::uint64_t order_id;
    std::uint32_t warehouse;
    std::uint32_t district;
    std::uint32_t line_count;
    std::uint32_t pad;
    std::int64_t total;  // cents
  };
  static_assert(sizeof(OrderHeader) == 32);

  struct OrderLine {
    std::uint64_t item;
    std::int64_t quantity;
    std::int64_t amount;  // cents
  };
  static_assert(sizeof(OrderLine) == 24);

  [[nodiscard]] static std::uint64_t required_db_size(const OrderEntryOptions& options);

  OrderEntry(TxnEngine& engine, const OrderEntryOptions& options, std::uint64_t seed = 11);

  /// Writes initial districts, items and stock (one setup transaction).
  void load();

  /// One new-order transaction; returns its simulated latency.
  sim::SimDuration run_one();

  WorkloadResult run(std::uint64_t n);

  /// Invariants: district order counters sum to the number of orders
  /// placed; stock ytd totals equal quantities ordered.  Throws
  /// std::logic_error on violation.
  void check_invariants() const;

  [[nodiscard]] std::uint64_t orders_placed() const noexcept { return orders_placed_; }

 private:
  [[nodiscard]] std::uint64_t district_offset(std::uint64_t d) const;
  [[nodiscard]] std::uint64_t item_offset(std::uint64_t i) const;
  [[nodiscard]] std::uint64_t stock_offset(std::uint64_t i) const;
  [[nodiscard]] std::uint64_t order_offset(std::uint64_t slot) const;

  TxnEngine* engine_;
  OrderEntryOptions options_;
  sim::Rng rng_;
  FastZipf item_picker_;
  std::uint64_t orders_placed_ = 0;
  std::int64_t total_quantity_ = 0;
};

}  // namespace perseas::workload
