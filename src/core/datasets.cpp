#include "src/core/datasets.h"

#include "src/table/table.h"

namespace ac::core {

namespace {

std::size_t distinct_ases_in_ditl(const world& w) {
    table::column<topo::asn_t> ases;
    for (const auto& lc : w.ditl().letters) {
        for (const auto& r : lc.records) {
            if (const auto asn = w.as_mapper().lookup(net::slash24{r.source_ip})) {
                ases.push_back(*asn);
            }
        }
    }
    return table::distinct_count(ases.view());
}

std::size_t distinct_ases_in_logs(const world& w) {
    return table::distinct_count(w.server_log_table().asn.view());
}

} // namespace

std::vector<dataset_entry> dataset_registry(const world& w) {
    std::vector<dataset_entry> entries;

    {
        dataset_entry e;
        e.name = "Sampled CDN Server-Side Logs";
        e.sections = "§6";
        double samples = 0.0;
        for (const std::int64_t count : w.server_log_table().sample_count.view()) {
            samples += static_cast<double>(count);
        }
        e.measurements = samples;
        e.duration = "1 week";
        e.year = 2019;
        e.as_count = distinct_ases_in_logs(w);
        e.technology = "TCP handshake RTT at front-ends";
        e.strengths = "client-to-front-end mapping, global coverage";
        e.weaknesses = "user population differs across rings";
        entries.push_back(std::move(e));
    }
    {
        dataset_entry e;
        e.name = "Sampled CDN Client-Side Measurements";
        e.sections = "§5.2";
        double samples = 0.0;
        for (const auto& row : w.client_measurements()) {
            samples += static_cast<double>(row.sample_count);
        }
        e.measurements = samples;
        e.duration = "1 week";
        e.year = 2019;
        e.as_count = distinct_ases_in_logs(w);
        e.technology = "Odin-style HTTP GET to every ring";
        e.strengths = "population held fixed across rings";
        e.weaknesses = "front-end unknown, smaller scale";
        entries.push_back(std::move(e));
    }
    {
        dataset_entry e;
        e.name = "CDN User Counts";
        e.sections = "§4.3";
        e.measurements = w.cdn_user_counts().total_observed_users();
        e.duration = "1 month";
        e.year = 2019;
        e.as_count = distinct_ases_in_logs(w);
        e.technology = "custom-URL DNS requests";
        e.strengths = "precise per-recursive counts";
        e.weaknesses = "NAT undercount, partial coverage";
        entries.push_back(std::move(e));
    }
    {
        dataset_entry e;
        e.name = "APNIC User Counts";
        e.sections = "§4.3";
        e.measurements = static_cast<double>(w.apnic_user_counts().as_count());
        e.duration = "updated daily";
        e.year = 2019;
        e.as_count = w.apnic_user_counts().as_count();
        e.technology = "ad-network sampling, per AS";
        e.strengths = "public, global";
        e.weaknesses = "unvalidated, coarse (AS) granularity";
        entries.push_back(std::move(e));
    }
    {
        dataset_entry e;
        e.name = "DITL Packet Traces";
        e.sections = "§2.1";
        e.measurements = w.ditl().total_queries_per_day() * w.config().ditl.capture_days;
        e.duration = "2 days";
        e.year = w.config().year == ditl_year::y2018 ? 2018 : 2020;
        e.as_count = distinct_ases_in_ditl(w);
        e.technology = "per-site packet captures";
        e.strengths = "global view of recursive behaviour";
        e.weaknesses = "noisy; only above the recursive";
        entries.push_back(std::move(e));
    }
    {
        dataset_entry e;
        e.name = "RIPE Atlas";
        e.sections = "§5.2, §7.1";
        e.measurements = static_cast<double>(w.fleet().probes().size());
        e.duration = "1 hour";
        e.year = 2018;
        e.as_count = w.fleet().as_coverage();
        e.technology = "ping, traceroute";
        e.strengths = "public, reproducible";
        e.weaknesses = "limited, biased coverage";
        entries.push_back(std::move(e));
    }
    return entries;
}

} // namespace ac::core
