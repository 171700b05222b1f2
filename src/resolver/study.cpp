#include "src/resolver/study.h"

#include <algorithm>
#include <cmath>

#include "src/netbase/strfmt.h"

namespace ac::resolver {

namespace {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const auto mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    return values[mid];
}

/// A Zipf-popular universe of second-level zones, each pinned to a TLD.
class name_universe {
public:
    name_universe(const dns::root_zone& zone, int sld_count, double zipf_s, int tld_cap,
                  std::uint64_t seed)
        : popularity_(zipf_weights(sld_count, zipf_s)) {
        rand::rng gen{rand::mix_seed(seed, 0x5a1d5ull)};
        names_.reserve(static_cast<std::size_t>(sld_count));
        const int cap = std::min(std::max(tld_cap, 1), zone.tld_count());
        std::vector<double> tld_weights(static_cast<std::size_t>(cap));
        for (int i = 0; i < cap; ++i) {
            tld_weights[static_cast<std::size_t>(i)] = zone.popularity(i);
        }
        const rand::weighted_table tlds{std::move(tld_weights)};
        for (int i = 0; i < sld_count; ++i) {
            names_.push_back("site" + strfmt::zero_padded(i, 5) + "." +
                             zone.tlds()[tlds.draw(gen)]);
        }
    }

    [[nodiscard]] const std::string& sample(rand::rng& gen) const {
        return names_[popularity_.draw(gen)];
    }

private:
    static std::vector<double> zipf_weights(int count, double s) {
        std::vector<double> weights(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
            weights[static_cast<std::size_t>(i)] = 1.0 / std::pow(static_cast<double>(i + 1), s);
        }
        return weights;
    }

    rand::weighted_table popularity_;
    std::vector<std::string> names_;
};

std::string random_probe_label(rand::rng& gen) {
    const int len = static_cast<int>(gen.uniform_int(8, 12));
    std::string label;
    label.reserve(static_cast<std::size_t>(len));
    for (int i = 0; i < len; ++i) {
        label.push_back(static_cast<char>('a' + gen.uniform_index(26)));
    }
    return label;
}

} // namespace

double study_result::overall_root_miss_rate() const {
    if (totals.client_queries == 0) return 0.0;
    return static_cast<double>(totals.root_queries) /
           static_cast<double>(totals.client_queries);
}

double study_result::median_daily_root_miss_rate() const {
    std::vector<double> rates;
    rates.reserve(days.size());
    for (const auto& d : days) {
        if (d.client_queries > 0) {
            rates.push_back(static_cast<double>(d.root_queries) /
                            static_cast<double>(d.client_queries));
        }
    }
    return median(std::move(rates));
}

double study_result::redundant_root_fraction() const {
    if (totals.root_queries == 0) return 0.0;
    return static_cast<double>(totals.redundant_root_queries) /
           static_cast<double>(totals.root_queries);
}

double study_result::fraction_root_latency_above(double ms) const {
    const auto above = std::count_if(root_latency_nonzero_ms.begin(),
                                     root_latency_nonzero_ms.end(),
                                     [&](double v) { return v > ms; });
    const double total = static_cast<double>(root_latency_zero_queries) +
                         static_cast<double>(root_latency_nonzero_ms.size());
    return total == 0.0 ? 0.0 : static_cast<double>(above) / total;
}

study_result run_shared_cache_study(const dns::root_zone& zone, const workload_options& options,
                                    const latency_model& model,
                                    pop::resolver_software software, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0x15171ull)};
    recursive_sim sim{zone, software, model, gen.fork(1).seed()};
    name_universe universe{zone, options.sld_universe, options.sld_zipf_s, options.tld_cap,
                           gen.fork(2).seed()};

    study_result result;
    const auto total_queries = static_cast<long>(
        static_cast<double>(options.users) * options.queries_per_user_day *
        static_cast<double>(options.days));
    const long sample_stride = std::max<long>(
        1, total_queries / static_cast<long>(options.latency_sample_cap));

    const double queries_per_day =
        static_cast<double>(options.users) * options.queries_per_user_day;
    long issued = 0;
    for (int day = 0; day < options.days; ++day) {
        daily_stat stat;
        const auto today = static_cast<long>(queries_per_day);
        for (long q = 0; q < today; ++q, ++issued) {
            const double now_s = day * 86400.0 +
                                 86400.0 * static_cast<double>(q) / static_cast<double>(today);
            std::string qname;
            if (gen.chance(options.invalid_query_share)) {
                qname = random_probe_label(gen);
            } else {
                qname = "www." + universe.sample(gen);
            }
            const auto qtype =
                gen.chance(options.aaaa_share) ? dns::rr_type::aaaa : dns::rr_type::a;
            const auto outcome = sim.resolve(qname, qtype, now_s);

            stat.client_queries += 1;
            stat.root_queries += outcome.root_queries;
            stat.critical_root_latency_ms += outcome.root_latency_ms;

            if (issued % sample_stride == 0) {
                result.query_latency_sample_ms.push_back(outcome.latency_ms);
            }
            if (outcome.root_latency_ms > 0.0) {
                result.root_latency_nonzero_ms.push_back(outcome.root_latency_ms);
            } else {
                ++result.root_latency_zero_queries;
            }
        }
        result.days.push_back(stat);
        sim.cache().evict_expired(day * 86400.0);
    }
    result.totals = sim.totals();
    return result;
}

double local_user_result::median_daily_root_miss_rate() const {
    std::vector<double> rates;
    for (const auto& d : days) {
        if (d.dns.client_queries > 0) {
            rates.push_back(static_cast<double>(d.dns.root_queries) /
                            static_cast<double>(d.dns.client_queries));
        }
    }
    return median(std::move(rates));
}

double local_user_result::median_daily_root_latency_ms() const {
    std::vector<double> values;
    for (const auto& d : days) values.push_back(d.dns.critical_root_latency_ms);
    return median(std::move(values));
}

double local_user_result::median_daily_page_load_s() const {
    std::vector<double> values;
    for (const auto& d : days) values.push_back(d.browsing.cumulative_page_load_s);
    return median(std::move(values));
}

double local_user_result::median_daily_active_browsing_s() const {
    std::vector<double> values;
    for (const auto& d : days) values.push_back(d.browsing.active_browsing_s);
    return median(std::move(values));
}

double local_user_result::root_share_of_page_load() const {
    const double denom = median_daily_page_load_s() * 1000.0;
    return denom <= 0.0 ? 0.0 : median_daily_root_latency_ms() / denom;
}

double local_user_result::root_share_of_browsing() const {
    const double denom = median_daily_active_browsing_s() * 1000.0;
    return denom <= 0.0 ? 0.0 : median_daily_root_latency_ms() / denom;
}

local_user_result run_local_user_study(const dns::root_zone& zone, int days,
                                       const web::browsing_options& browsing,
                                       const latency_model& model,
                                       pop::resolver_software software, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0x10ca1ull)};
    recursive_sim sim{zone, software, model, gen.fork(1).seed()};
    // A single user touches a narrower slice of the web and fewer TLDs.
    name_universe universe{zone, 1500, 1.1, 30, gen.fork(2).seed()};

    local_user_result result;
    for (int day = 0; day < days; ++day) {
        local_user_day record;
        record.browsing = web::simulate_browsing_day(browsing, gen);
        const int queries = record.browsing.total_dns_queries();
        for (int q = 0; q < queries; ++q) {
            const double now_s =
                day * 86400.0 + 86400.0 * static_cast<double>(q) / std::max(1, queries);
            // Startup probes: a couple of Chromium bursts per day.
            std::string qname;
            if (q < 6 && gen.chance(0.5)) {
                qname = random_probe_label(gen);
            } else {
                qname = "www." + universe.sample(gen);
            }
            const auto qtype = gen.chance(0.25) ? dns::rr_type::aaaa : dns::rr_type::a;
            const auto outcome = sim.resolve(qname, qtype, now_s);
            record.dns.client_queries += 1;
            record.dns.root_queries += outcome.root_queries;
            record.dns.critical_root_latency_ms += outcome.root_latency_ms;
        }
        result.days.push_back(record);
    }
    result.totals = sim.totals();
    return result;
}

} // namespace ac::resolver
