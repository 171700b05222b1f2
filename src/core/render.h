// Text rendering for figures: benches print the same series the paper plots.
#pragma once

#include <iosfwd>
#include <string>

#include "src/analysis/stats.h"

namespace ac::core {

/// Prints a labeled quantile row: "label: p10=.. p25=.. p50=.. p75=.. p90=..
/// p95=.. p99=.." plus the zero-fraction (the CDF's y-intercept).
void print_cdf_row(std::ostream& os, const std::string& label, const analysis::weighted_cdf& cdf,
                   const std::string& unit = "ms");

} // namespace ac::core
