// Shared load gauge names + publishers.
//
// The load analysis (`acctx load`) and the query service (`acctx serve`,
// /metricsz) report front-end and per-letter load through the same obs
// gauges, so a dashboard reading /metricsz and a frontier run write to the
// same metric names. Helpers here own the naming scheme:
//
//   load.front_end_conn.<fe>   connections landing on front-end <fe>
//   load.letter_users.<L>      users behind root letter <L>'s catchment
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "src/cdn/telemetry.h"

namespace ac::load {

[[nodiscard]] std::string front_end_conn_gauge_name(int front_end);
[[nodiscard]] std::string letter_users_gauge_name(std::string_view letter);

/// Sets load.front_end_conn.<f> for every front-end in [0, size).
void set_front_end_conn_gauges(std::span<const double> conn_by_front_end);

/// Aggregates a server-side log table to per-front-end connection totals
/// (group-by front_end, sum of sample_count) and publishes them as the
/// front-end gauges. This is the serve-path entry: a snapshot that carries
/// telemetry surfaces the same gauges a live `acctx load` run would.
void publish_front_end_conn_gauges(const cdn::server_log_table& logs);

} // namespace ac::load
