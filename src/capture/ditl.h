// DITL-style root-DNS captures.
//
// Each participating letter contributes per-site capture streams over ~48 h.
// We synthesize the same artifact: per-letter record sets keyed by exact
// source IP (aggregation to /24 is an analysis step, as in the paper), with
// the defects the paper had to work around — G missing, I fully anonymized,
// B truncated to /24, D/L TCP-unusable — plus the traffic the preprocessing
// step drops: invalid-TLD junk, PTR, private-source, spoofed-source and
// IPv6 volume (§2.1).
#pragma once

#include <cstdint>
#include <vector>

#include "src/dns/query_model.h"
#include "src/dns/root_letters.h"
#include "src/engine/thread_pool.h"
#include "src/netbase/ipv4.h"
#include "src/population/population.h"
#include "src/topology/addressing.h"

namespace ac::capture {

enum class query_category : std::uint8_t {
    valid_tld,    // queries for existing TLDs (potentially user-facing)
    invalid_tld,  // Chromium probes, leaked corporate suffixes, typos
    ptr,          // reverse lookups
};

/// One aggregated capture row: a source IP's daily query rate of one
/// category landing at one site of one letter. (Real DITL is per-packet;
/// rates are the paper-relevant sufficient statistic.)
struct capture_record {
    net::ipv4_addr source_ip;
    route::site_id site = 0;
    query_category category = query_category::valid_tld;
    double queries_per_day = 0.0;
};

/// TCP-handshake RTT evidence for one <source /24, site>: the paper derives
/// latency from TCP RTTs [57], keeping medians with >= 10 samples (§3).
struct tcp_latency_row {
    net::slash24 source;
    route::site_id site = 0;
    int sample_count = 0;
    double median_rtt_ms = 0.0;
    double queries_per_day = 0.0;  // volume this row represents
};

struct letter_capture {
    char letter = 'A';
    dns::letter_spec spec;
    std::vector<capture_record> records;       // IPv4 only; incl. junk/private
    std::vector<tcp_latency_row> tcp_rtts;     // empty if !spec.tcp_usable
    double ipv6_queries_per_day = 0.0;         // volume excluded up front

    [[nodiscard]] double total_queries_per_day() const;
};

struct ditl_options {
    double ipv6_fraction = 0.12;       // of total traffic (excluded, §2.1)
    double private_fraction = 0.07;    // queries sourced from private space
    double spoofed_fraction = 0.012;   // spoofed-source share of valid volume
    int junk_source_count = 8000;      // non-recursive /24s emitting junk
    int junk_ips_per_source = 3;       // distinct source IPs per junk /24
    double junk_source_median_qpd = 1500.0;
    double junk_source_sigma = 2.0;
    int min_tcp_samples = 10;          // paper's floor for a usable median
    double capture_days = 2.0;
    /// Share of /24s with a secondary site that split whole IPs to it (the
    /// rest split each IP's flow) — App. B.2's two instability flavors.
    double per_ip_split_share = 0.6;
    /// Ignored: generation has one path, which holds every record in
    /// memory. Kept only because perfbench/driver.cpp assigns it; it changes
    /// no output byte and is not part of the sweep config hash.
    std::size_t max_buffered_records = 0;
};

struct ditl_dataset {
    std::vector<letter_capture> letters;  // only letters with in_ditl=true

    [[nodiscard]] const letter_capture& of(char letter) const;
    [[nodiscard]] double total_queries_per_day() const;
};

/// Generates the full DITL dataset. Junk sources allocate fresh /24s from
/// `space` (they must geolocate and map to ASes like everything else).
///
/// Per-source synthesis draws from streams keyed by (seed, stage, item) —
/// engine/stream_rng.h — so a non-serial `pool` chunks profiles across
/// threads and the dataset is byte-identical at any thread count.
[[nodiscard]] ditl_dataset generate_ditl(const dns::root_system& roots,
                                         const pop::user_base& base,
                                         const std::vector<dns::recursive_query_profile>& profiles,
                                         topo::address_space& space,
                                         const ditl_options& options, std::uint64_t seed,
                                         engine::thread_pool* pool = nullptr);

} // namespace ac::capture
