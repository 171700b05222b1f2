// The §2.1 preprocessing pipeline.
//
// Of 51.9 B daily root queries, the paper discards 31 B to non-existent
// names, 2 B PTR, 7% private-source, and all IPv6 before any analysis; the
// remainder is what can plausibly sit on a user's critical path. Appendix
// B.1 shows skipping this step shifts per-user query counts ~20x, so the
// filter is itself an experiment knob (Fig. 8 re-runs everything unfiltered).
#pragma once

#include <span>

#include "src/capture/ditl.h"
#include "src/table/column.h"

namespace ac::capture {

struct filter_options {
    bool drop_invalid_tld = true;  // Fig. 8 sets this false
    bool drop_ptr = true;          // Fig. 8 sets this false
    bool drop_private_sources = true;
};

struct filter_stats {
    double raw_queries_per_day = 0.0;       // incl. IPv6
    double invalid_dropped = 0.0;
    double ptr_dropped = 0.0;
    double private_dropped = 0.0;
    double ipv6_dropped = 0.0;
    double kept = 0.0;
};

struct filtered_letter {
    char letter = 'A';
    dns::letter_spec spec;
    std::vector<capture_record> records;   // surviving rows
    std::vector<tcp_latency_row> tcp_rtts; // carried through unchanged
    filter_stats stats;
};

[[nodiscard]] filtered_letter filter_letter(const letter_capture& capture,
                                            const filter_options& options = {});

[[nodiscard]] std::vector<filtered_letter> filter_all(const ditl_dataset& dataset,
                                                      const filter_options& options = {});

/// Columnar (struct-of-arrays) form of one letter's capture rows: one
/// contiguous column per record attribute, plus the TCP medians keyed by
/// a packed (source /24 key << 32) | site composite. This is the layout the
/// analysis kernels (src/table/) consume; the row forms above are what DITL
/// generation emits, the §2.1 filter reads, and `snapshot::read_ditl`
/// rebuilds from an archive.
struct letter_table {
    char letter = 'A';
    dns::letter_spec spec;
    table::column<std::uint32_t> source_ip;  // ipv4_addr::value()
    table::column<std::uint32_t> site;
    table::column<query_category> category;
    table::column<double> queries_per_day;
    table::column<std::uint64_t> tcp_key;    // (slash24 key << 32) | site
    table::column<double> tcp_median_rtt_ms;

    [[nodiscard]] std::size_t rows() const noexcept { return source_ip.size(); }
};

[[nodiscard]] letter_table to_table(const filtered_letter& letter);
[[nodiscard]] letter_table to_table(const letter_capture& capture);
[[nodiscard]] std::vector<letter_table> to_tables(std::span<const filtered_letter> letters);

/// The §2.1 filter on a table: the rows of `raw` that filter_letter keeps,
/// in the same order, with the TCP medians carried through, so
/// `filter_table(to_table(c), o)` equals `to_table(filter_letter(c, o))`.
[[nodiscard]] letter_table filter_table(const letter_table& raw, const filter_options& options);

} // namespace ac::capture
