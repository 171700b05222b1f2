// Plot-ready figure exports: the one reproduction path for the paper's
// artifacts built from a world.
//
// `write_figure_csvs` writes each figure's data series as a CSV file, so the
// paper's plots can be regenerated with any plotting tool
// (tools/plot_figures.py draws them), plus one file of the scalars
// EXPERIMENTS.md quotes. Long format, one file per figure.
#pragma once

#include <string>
#include <vector>

#include "src/core/world.h"

namespace ac::core {

/// Writes every figure's data series into `directory` (created if absent):
///
///   fig02a_root_geographic_inflation.csv    series,inflation_ms,cdf
///   fig02b_root_latency_inflation.csv       series,inflation_ms,cdf
///   fig03_queries_per_user.csv              series,queries_per_user_day,cdf
///   fig04a_probe_ring_latency.csv           ring,rtt_ms,cdf
///   fig04b_ring_step_delta.csv              step,delta_ms,cdf
///   fig05a_cdn_geographic_inflation.csv     series,inflation_ms,cdf
///   fig05b_cdn_latency_inflation.csv        series,inflation_ms,cdf
///   fig06a_as_path_lengths.csv              destination,bucket,share
///   fig06b_inflation_by_path_length.csv     destination,bucket,min,q1,median,q3,max,weight
///   fig07a_size_latency_efficiency.csv      deployment,sites,median_ms,efficiency
///   fig07b_coverage.csv                     deployment,radius_km,covered_fraction
///   fig08_queries_per_user_unfiltered.csv   series,queries_per_user_day,cdf
///   fig09_queries_per_user_by_ip.csv        series,queries_per_user_day,cdf
///   fig10_favorite_site.csv                 letter,fraction_not_favorite,cdf
///   headline_numbers.csv                    artifact,statistic,value
///
/// headline_numbers.csv holds the scalars: Fig. 1's user proximity and
/// front-ends per continent, the threshold shares, medians and ratios of
/// Figs. 2-5 and 8-10, Fig. 14's per-continent and near/far medians, and
/// Table 4's eight overlap cells.
///
/// Returns the paths written, in a stable order. Throws on I/O failure.
[[nodiscard]] std::vector<std::string> write_figure_csvs(const world& w,
                                                         const std::string& directory);

} // namespace ac::core
