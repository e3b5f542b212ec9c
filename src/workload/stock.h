#ifndef GRETA_WORKLOAD_STOCK_H_
#define GRETA_WORKLOAD_STOCK_H_

#include <vector>

#include "common/catalog.h"
#include "common/stream.h"
#include "query/query.h"

namespace greta {

/// One phase of a bursty load schedule: per-type rate multipliers applied
/// over the time range [start, end). Seconds covered by several phases
/// multiply their factors; uncovered seconds run at the base rates. The
/// generated stream stays deterministic per seed — the multipliers scale
/// the per-second event budget, they do not perturb the price walk's
/// time base (prices step by wall time between a company's transactions,
/// so pair selectivity is stable across phases).
struct BurstPhase {
  Ts start = 0;
  Ts end = 0;
  /// Scales StockConfig::rate for Stock transactions (0 silences them).
  double stock_multiplier = 1.0;
  /// Scales StockConfig::halt_probability for Halt events.
  double halt_multiplier = 1.0;
};

/// Synthetic NYSE-like stock transaction stream (Section 10.1, "Stock Real
/// Data Set"): the paper replays 225k real transaction records of 10
/// companies, each carrying volume, price, second timestamps, type, company,
/// sector and transaction ids. Those records are not part of this
/// repository, so we generate an equivalent stream from a seeded random
/// walk over the same schema.
struct StockConfig {
  uint64_t seed = 42;
  int num_companies = 10;
  int num_sectors = 5;
  /// Events per second (stream rate).
  int rate = 100;
  /// Stream duration in seconds.
  Ts duration = 100;
  double start_price = 100.0;
  /// Brownian volatility per sqrt(second) of the continuous-time price
  /// process (independent of the event rate, so selectivity is stable when
  /// sweeping events-per-window).
  double volatility = 1.0;
  /// Upward drift per second. Down-pairs (price decreasing across two
  /// transactions of a company) become rarer as drift grows, which controls
  /// how many down-trends a window contains — the real NYSE data's mostly
  /// flat tick prices have the same effect.
  double drift = 0.5;
  /// Emit trading-halt events (for negation queries) with this per-second
  /// probability per company.
  double halt_probability = 0.0;
  /// Bursty load schedule (empty: uniform rate): per-phase rate
  /// multipliers, the load shifts that decide whether sharing pays.
  std::vector<BurstPhase> bursts;
};

/// Registers the Stock (and Halt) event types; idempotent per catalog.
void RegisterStockTypes(Catalog* catalog);

/// Generates the stream; RegisterStockTypes is called implicitly.
Stream GenerateStockStream(Catalog* catalog, const StockConfig& config);

/// Query Q1: count of down-trends per sector.
///
///   RETURN sector, COUNT(*) PATTERN Stock S+
///   WHERE [company, sector] AND S.price * factor > NEXT(S).price
///   GROUP-BY sector WITHIN <within> SLIDE <slide>
///
/// `factor` builds the paper's nine query variations (price decreasing by
/// X percent per step); factor = 1 is Q1 itself.
StatusOr<QuerySpec> MakeQ1(Catalog* catalog, Ts within, Ts slide,
                           double factor = 1.0);

/// Q1 with a leading negative sub-pattern (Figure 15): down-trends only
/// when no trading halt preceded them in the window:
///   PATTERN SEQ(NOT Halt H, Stock S+)
StatusOr<QuerySpec> MakeQ1WithNegation(Catalog* catalog, Ts within, Ts slide,
                                       double factor = 1.0);

}  // namespace greta

#endif  // GRETA_WORKLOAD_STOCK_H_
