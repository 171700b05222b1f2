#include "src/capture/ditl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "src/anycast/deployment.h"
#include "src/engine/stream_rng.h"
#include "src/obs/trace.h"

namespace ac::capture {

double letter_capture::total_queries_per_day() const {
    double total = ipv6_queries_per_day;
    for (const auto& r : records) total += r.queries_per_day;
    return total;
}

const letter_capture& ditl_dataset::of(char letter) const {
    for (const auto& lc : letters) {
        if (lc.letter == letter) return lc;
    }
    throw std::out_of_range(std::string{"ditl_dataset: no capture for letter "} + letter);
}

double ditl_dataset::total_queries_per_day() const {
    double total = 0.0;
    for (const auto& lc : letters) total += lc.total_queries_per_day();
    return total;
}

namespace {

/// A non-recursive junk emitter (scanner, malware, misconfigured box).
struct junk_source {
    net::slash24 block;
    topo::asn_t asn = 0;
    topo::region_id region = 0;
    double queries_per_day = 0.0;
};

/// Anonymizes a source address per the letter's policy.
net::ipv4_addr anonymize(net::ipv4_addr ip, dns::anonymization anon) {
    switch (anon) {
        case dns::anonymization::none:
            return ip;
        case dns::anonymization::slash24:
            // Truncate to the /24 base: joins by /24 still work (§2.1).
            return net::ipv4_addr{ip.value() & 0xffffff00u};
        case dns::anonymization::full: {
            // Scramble into space that matches nothing in any other dataset.
            const auto h = rand::splitmix64(ip.value());
            return net::ipv4_addr{0xc8000000u | static_cast<std::uint32_t>(h & 0x00ffffffu)};
        }
    }
    return ip;
}

/// Stage ids for per-item RNG streams (engine/stream_rng.h). The per-letter
/// profile stage mixes the letter in, so every (letter, profile) pair owns
/// one independent stream.
constexpr std::uint64_t stage_junk = 0xd171'0001ULL;
constexpr std::uint64_t stage_profiles = 0xd171'0002ULL;

} // namespace

ditl_dataset generate_ditl(const dns::root_system& roots, const pop::user_base& base,
                           const std::vector<dns::recursive_query_profile>& profiles,
                           topo::address_space& space, const ditl_options& options,
                           std::uint64_t seed, engine::thread_pool* pool) {
    rand::rng gen{rand::mix_seed(seed, 0xd171ull)};

    // --- Junk sources: allocate fresh /24s scattered across the world. ---
    // Serial: address allocation is order-sensitive, but each source's draws
    // come from its own keyed stream, not from a shared sequential one.
    std::vector<junk_source> junk;
    {
        // Junk comes from anywhere; reuse locations of recursives' ASes is
        // enough diversity and avoids needing the graph here.
        std::unordered_map<std::uint64_t, std::pair<topo::asn_t, topo::region_id>> locs;
        for (const auto& rec : base.recursives()) {
            locs.emplace((std::uint64_t{rec.asn} << 32) | rec.region,
                         std::make_pair(rec.asn, rec.region));
        }
        std::vector<std::pair<topo::asn_t, topo::region_id>> loc_list;
        loc_list.reserve(locs.size());
        for (const auto& [_, v] : locs) loc_list.push_back(v);
        std::sort(loc_list.begin(), loc_list.end());
        for (int i = 0; i < options.junk_source_count && !loc_list.empty(); ++i) {
            auto jgen = engine::item_rng(seed, stage_junk, static_cast<std::uint64_t>(i));
            const auto& [asn, region] = loc_list[jgen.uniform_index(loc_list.size())];
            junk_source js;
            js.block = space.allocate(asn, region, 1);
            js.asn = asn;
            js.region = region;
            js.queries_per_day =
                options.junk_source_median_qpd * jgen.lognormal(0.0, options.junk_source_sigma);
            junk.push_back(js);
        }
    }

    // --- Catchments per letter over every source location. ---
    std::vector<anycast::source> sources;
    {
        std::unordered_map<std::uint64_t, bool> seen;
        auto add = [&](topo::asn_t asn, topo::region_id region) {
            const std::uint64_t key = (std::uint64_t{asn} << 32) | region;
            if (seen.emplace(key, true).second) {
                sources.push_back(anycast::source{asn, region});
            }
        };
        for (const auto& rec : base.recursives()) add(rec.asn, rec.region);
        for (const auto& js : junk) add(js.asn, js.region);
    }

    ditl_dataset dataset;
    for (char letter : roots.all_letters()) {
        const auto& spec = roots.spec(letter);
        if (!spec.in_ditl) continue;  // G contributes nothing
        obs::span letter_span{"ditl/letter"};

        const auto& dep = roots.deployment_of(letter);
        anycast::catchment_table catchment{dep, sources,
                                           rand::mix_seed(seed, 0xca7ull, static_cast<std::uint64_t>(letter)),
                                           pool};
        const int li = dns::letter_index(letter);

        letter_capture lc;
        lc.letter = letter;
        lc.spec = spec;
        auto lgen = gen.fork(0x1000 + static_cast<std::uint64_t>(letter));

        // Per-/24 aggregation buffer for TCP rows.
        std::unordered_map<std::uint64_t, tcp_latency_row> tcp_acc;  // (s24, site)

        // Record sink: rows append to the letter's record vector. The
        // running totals accumulate in append order, so the spoof and
        // private volumes below read the same addition sequence a
        // whole-vector pass over the rows appended so far would.
        double valid_total = 0.0;  // valid_tld volume appended so far (§3.1 spoof base)
        double qpd_total = 0.0;    // all-category volume appended so far
        auto sink = [&](const capture_record& r) {
            if (r.category == query_category::valid_tld) valid_total += r.queries_per_day;
            qpd_total += r.queries_per_day;
            lc.records.push_back(r);
        };

        // --- Recursive-sourced traffic: the hot loop. Map phase computes
        // each profile's records and TCP contributions into its own slot
        // from a (seed, stage^letter, profile) keyed stream; the ordered
        // reduce below makes the output independent of thread count. ---
        struct tcp_part {
            std::uint64_t key = 0;
            net::slash24 source;
            route::site_id site = 0;
            int samples = 0;
            double queries_per_day = 0.0;
            double median_rtt_ms = 0.0;
        };
        struct profile_part {
            std::vector<capture_record> records;
            std::vector<tcp_part> tcp;
        };
        const std::uint64_t profile_stage =
            stage_profiles ^ (static_cast<std::uint64_t>(letter) << 32);
        std::vector<profile_part> parts(profiles.size());
        engine::parallel_over(pool, profiles.size(), [&](std::size_t begin, std::size_t end) {
            for (std::size_t pi = begin; pi < end; ++pi) {
                const auto& profile = profiles[pi];
                auto& part = parts[pi];
                const auto& rec = base.recursives()[profile.recursive_index];
                const double weight = profile.letter_weight[static_cast<std::size_t>(li)];
                if (weight <= 0.0) continue;
                const auto* row = catchment.find(rec.asn, rec.region);
                if (row == nullptr) continue;

                auto emit = [&](net::ipv4_addr ip, route::site_id site, query_category cat,
                                double qpd) {
                    if (qpd <= 0.0) return;
                    part.records.push_back(
                        capture_record{anonymize(ip, spec.anon), site, cat, qpd});
                };

                const double valid = profile.valid_per_day * weight;
                const double invalid = profile.invalid_per_day() * weight;
                const double ptr = profile.ptr_per_day * weight;

                // Decide the /24's split mode once.
                auto rgen = engine::item_rng(seed, profile_stage, pi);
                const bool per_ip_split =
                    row->secondary.has_value() && rgen.chance(options.per_ip_split_share);

                double secondary_budget = row->secondary_fraction;  // IP share, per-ip mode
                for (std::size_t ip_i = 0; ip_i < rec.resolver_ips.size(); ++ip_i) {
                    const double ip_share = rec.ip_activity_share[ip_i];
                    const auto ip = rec.resolver_ips[ip_i];
                    route::site_id primary_site = row->primary.site;
                    double secondary_share = 0.0;
                    if (row->secondary) {
                        if (per_ip_split) {
                            // Whole IPs move to the secondary site until the
                            // split fraction is consumed.
                            if (secondary_budget >= ip_share * 0.5) {
                                primary_site = row->secondary->site;
                                secondary_budget -= ip_share;
                            }
                        } else {
                            secondary_share = row->secondary_fraction;
                        }
                    }
                    const route::site_id other_site =
                        row->secondary ? row->secondary->site : primary_site;
                    for (auto [cat, qpd] : {std::pair{query_category::valid_tld, valid},
                                            std::pair{query_category::invalid_tld, invalid},
                                            std::pair{query_category::ptr, ptr}}) {
                        const double at_ip = qpd * ip_share;
                        emit(ip, primary_site, cat, at_ip * (1.0 - secondary_share));
                        if (secondary_share > 0.0) {
                            emit(ip, other_site, cat, at_ip * secondary_share);
                        }
                    }
                }

                // TCP RTT evidence (usable letters only; D/L PCAPs are broken).
                if (spec.tcp_usable && profile.tcp_share > 0.0) {
                    const double tcp_qpd = valid * profile.tcp_share;
                    auto add_tcp = [&](const route::path_result& path, double share) {
                        const double qpd = tcp_qpd * share;
                        const auto samples =
                            static_cast<int>(std::floor(qpd * options.capture_days));
                        if (samples <= 0) return;
                        // Median handshake RTT tracks the path's steady-state RTT.
                        part.tcp.push_back(tcp_part{
                            (std::uint64_t{rec.block.key()} << 16) | path.site, rec.block,
                            path.site, samples, qpd, path.rtt_ms * rgen.lognormal(0.0, 0.03)});
                    };
                    add_tcp(row->primary, 1.0 - row->secondary_fraction);
                    if (row->secondary) add_tcp(*row->secondary, row->secondary_fraction);
                }
            }
        });

        // Ordered reduce: identical to what the old sequential loop built.
        for (auto& part : parts) {
            for (const auto& r : part.records) sink(r);
            for (const auto& t : part.tcp) {
                auto& acc = tcp_acc[t.key];
                acc.source = t.source;
                acc.site = t.site;
                acc.sample_count += t.samples;
                acc.queries_per_day += t.queries_per_day;
                acc.median_rtt_ms = t.median_rtt_ms;
            }
        }
        parts.clear();
        parts.shrink_to_fit();

        auto emit = [&](net::ipv4_addr ip, route::site_id site, query_category cat, double qpd) {
            if (qpd <= 0.0) return;
            sink(capture_record{anonymize(ip, spec.anon), site, cat, qpd});
        };

        // --- Junk-only sources (never resolve for users). ---
        for (const auto& js : junk) {
            const auto* row = catchment.find(js.asn, js.region);
            if (row == nullptr) continue;
            // Scanners spread roughly evenly over letters and source IPs.
            const double qpd = js.queries_per_day /
                               static_cast<double>(dns::letter_count) /
                               static_cast<double>(options.junk_ips_per_source);
            for (int ip = 0; ip < options.junk_ips_per_source; ++ip) {
                emit(js.block.prefix().address_at(static_cast<std::uint64_t>(1 + ip)),
                     row->primary.site, query_category::invalid_tld, qpd);
            }
        }

        // --- Spoofed-source traffic: victim /24 appears at the spoofer's
        // site, making the victim's route look inflated (§3.1). ---
        {
            // `valid_total` was accumulated record-by-record in append order:
            // the same addition sequence the old whole-vector pass performed,
            // read here before any spoofed rows (themselves valid) land.
            const double spoof_total = valid_total * options.spoofed_fraction;
            const int spoof_pairs = 200;
            for (int i = 0; i < spoof_pairs; ++i) {
                const auto& victim =
                    base.recursives()[lgen.uniform_index(base.recursives().size())];
                const auto& spoofer =
                    base.recursives()[lgen.uniform_index(base.recursives().size())];
                const auto* row = catchment.find(spoofer.asn, spoofer.region);
                if (row == nullptr || victim.resolver_ips.empty()) continue;
                emit(victim.resolver_ips[0], row->primary.site, query_category::valid_tld,
                     spoof_total / spoof_pairs);
            }
        }

        // --- Private-source leakage: volume the filter must drop. ---
        {
            const double public_total = qpd_total;  // every record so far is public
            const double private_total =
                public_total * options.private_fraction / (1.0 - options.private_fraction);
            const int private_blocks = 150;
            for (int i = 0; i < private_blocks; ++i) {
                const auto addr = net::ipv4_addr{
                    (10u << 24) | static_cast<std::uint32_t>(lgen.uniform_index(1u << 16)) << 8 | 1u};
                // Landed site is arbitrary (private sources are unroutable
                // anyway); use a random global site.
                const auto site = static_cast<route::site_id>(
                    lgen.uniform_index(dep.sites().size()));
                emit(addr, site, query_category::invalid_tld, private_total / private_blocks);
            }
        }

        // --- IPv6 volume: recorded only as an excluded aggregate. ---
        {
            const double v4_total = qpd_total;  // incl. the private rows above
            lc.ipv6_queries_per_day =
                v4_total * options.ipv6_fraction / (1.0 - options.ipv6_fraction);
        }

        lc.tcp_rtts.reserve(tcp_acc.size());
        for (auto& [_, row] : tcp_acc) {
            if (row.sample_count >= options.min_tcp_samples) lc.tcp_rtts.push_back(row);
        }
        std::sort(lc.tcp_rtts.begin(), lc.tcp_rtts.end(), [](const auto& a, const auto& b) {
            return std::pair{a.source.key(), a.site} < std::pair{b.source.key(), b.site};
        });

        letter_span.set_items(lc.records.size());
        dataset.letters.push_back(std::move(lc));
    }
    return dataset;
}

} // namespace ac::capture
