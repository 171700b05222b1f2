#include "src/serve/query_engine.h"

#include <algorithm>

#include "src/load/gauges.h"
#include "src/netbase/strfmt.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/snapshot/world_io.h"

namespace ac::serve {

namespace {

/// One fixed-precision rendering for every served value, online and
/// offline: 6 fractional digits, no locale. Byte-equivalence between the
/// JSON endpoints, the /grid CSV, and `acctx serve --grid` rests on all of
/// them funnelling through here.
void append_value(std::string& out, double v) { out += strfmt::fixed(v, 6); }

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

void append_slash24(std::string& out, std::uint32_t key) {
    out += net::slash24{net::ipv4_addr{key << 8}}.to_string();
}

} // namespace

query_engine query_engine::open(const std::string& snapshot_path, int threads) {
    obs::span open_span{"serve/open"};
    auto bundle = snapshot::bundle::open(snapshot_path, snapshot::load_mode::mapped);
    return query_engine{
        snapshot::hydrate_world_ptr(std::move(bundle), threads > 0 ? threads : -1)};
}

query_engine::query_engine(std::unique_ptr<core::world> w) : world_(std::move(w)) {
    build_indexes();
}

void query_engine::build_indexes() {
    obs::span index_span{"serve/build_indexes"};
    engine::thread_pool* pool = world_->pool();

    index_ = analysis::point_query_index::build(world_->filtered_tables(), world_->roots(),
                                                world_->geodb(), world_->cdn_user_counts(),
                                                world_->as_mapper(), pool);

    // Warm + freeze every letter's select cache over the query population —
    // the unique <AS, region> locations hosting recursives, exactly the
    // sources dns::compute_letter_rtts evaluates (user locations can sit in
    // ASes the RIBs never saw) — rolling up catchments from the same
    // selections. After the freeze the serving read path takes no lock.
    std::vector<route::source_key> sources;
    std::vector<double> source_users;  // users_served summed per location
    {
        std::map<std::uint64_t, std::size_t> location_of;
        for (const auto& rec : world_->users().recursives()) {
            const std::uint64_t key = (std::uint64_t{rec.asn} << 32) | rec.region;
            const auto [it, inserted] = location_of.try_emplace(key, sources.size());
            if (inserted) {
                sources.push_back({rec.asn, rec.region});
                source_users.push_back(0.0);
            }
            source_users[it->second] += rec.users_served;
        }
    }

    auto& registry = obs::registry::global();
    for (const char letter : world_->roots().all_letters()) {
        auto& dep = world_->mutable_roots().mutable_deployment_of(letter);
        const auto selections = dep.rib().select_many(sources, pool);

        letter_catchment catchment;
        catchment.sites.resize(dep.sites().size());
        for (std::size_t i = 0; i < selections.size(); ++i) {
            if (!selections[i]) continue;
            auto& site = catchment.sites[selections[i]->site];
            site.users += source_users[i];
            site.locations += 1;
            catchment.total_users += source_users[i];
        }
        registry.get_gauge(load::letter_users_gauge_name({&letter, 1}))
            .set(catchment.total_users);
        catchments_.emplace(letter, std::move(catchment));

        frozen_entries_ += dep.mutable_rib().freeze_select_cache();
    }
    index_span.set_items(frozen_entries_);

    // Surface the snapshot's load profile in /metricsz: when the archive
    // carries server-side telemetry, per-front-end connection totals appear
    // under the same gauge names a live `acctx load` run publishes.
    load::publish_front_end_conn_gauges(world_->server_log_table(), pool);
}

void query_engine::inflation_json(std::span<const topo::asn_t> asns, std::string& out) const {
    out.clear();
    out += "{\"results\":[";
    for (std::size_t i = 0; i < asns.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"asn\":";
        append_u64(out, asns[i]);
        const auto* point = index_.inflation(asns[i]);
        if (point == nullptr) {
            out += ",\"found\":false}";
            continue;
        }
        out += ",\"found\":true,\"gi_ms\":";
        append_value(out, point->gi_ms);
        out += ",\"has_latency\":";
        out += point->has_latency ? "true" : "false";
        if (point->has_latency) {
            out += ",\"li_ms\":";
            append_value(out, point->li_ms);
        }
        out += ",\"users\":";
        append_value(out, point->users);
        out += ",\"slash24s\":";
        append_u64(out, point->slash24s);
        out += '}';
    }
    out += "]}";
}

void query_engine::amortized_json(std::span<const std::uint32_t> slash24_keys,
                                  std::string& out) const {
    out.clear();
    out += "{\"results\":[";
    for (std::size_t i = 0; i < slash24_keys.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"slash24\":\"";
        append_slash24(out, slash24_keys[i]);
        out += '"';
        const auto* point = index_.amortized(slash24_keys[i]);
        if (point == nullptr) {
            out += ",\"found\":false}";
            continue;
        }
        out += ",\"found\":true,\"queries_per_day\":";
        append_value(out, point->queries_per_day);
        out += ",\"users\":";
        append_value(out, point->users);
        out += ",\"queries_per_user_day\":";
        append_value(out, point->queries_per_user_day);
        out += '}';
    }
    out += "]}";
}

bool query_engine::catchment_json(char letter, std::span<const std::uint32_t> sites,
                                  std::string& out) const {
    const auto it = catchments_.find(letter);
    if (it == catchments_.end()) return false;
    const auto& catchment = it->second;
    for (const std::uint32_t site : sites) {
        if (site >= catchment.sites.size()) return false;
    }

    out.clear();
    out += "{\"letter\":\"";
    out += letter;
    out += "\",\"total_users\":";
    append_value(out, catchment.total_users);
    out += ",\"sites\":[";
    bool first = true;
    const auto emit = [&](std::uint32_t site) {
        if (!first) out += ',';
        first = false;
        const auto& s = catchment.sites[site];
        out += "{\"site\":";
        append_u64(out, site);
        out += ",\"users\":";
        append_value(out, s.users);
        out += ",\"share\":";
        append_value(out, catchment.total_users > 0.0 ? s.users / catchment.total_users : 0.0);
        out += ",\"locations\":";
        append_u64(out, s.locations);
        out += '}';
    };
    if (sites.empty()) {
        for (std::uint32_t site = 0; site < catchment.sites.size(); ++site) emit(site);
    } else {
        for (const std::uint32_t site : sites) emit(site);
    }
    out += "]}";
    return true;
}

bool query_engine::route_json(char letter, topo::asn_t asn, topo::region_id region,
                              std::string& out) const {
    if (catchments_.find(letter) == catchments_.end()) return false;
    const auto& rib = world_->roots().deployment_of(letter).rib();

    // The lock-free path: warmed keys answer from the sealed memo. Cold keys
    // (sources outside the warmed population) fall back to select, which
    // computes them without storing.
    const std::optional<route::path_result>* sealed = rib.select_frozen(asn, region);
    std::optional<route::path_result> fallback;
    const std::optional<route::path_result>* result = sealed;
    if (result == nullptr) {
        try {
            fallback = rib.select(asn, region);
        } catch (const std::out_of_range&) {
            fallback = std::nullopt;  // unknown AS/region: answered, not thrown
        }
        result = &fallback;
    }

    out.clear();
    out += "{\"letter\":\"";
    out += letter;
    out += "\",\"asn\":";
    append_u64(out, asn);
    out += ",\"region\":";
    append_u64(out, region);
    out += ",\"frozen\":";
    out += sealed != nullptr ? "true" : "false";
    if (!result->has_value()) {
        out += ",\"found\":false}";
        return true;
    }
    const auto& path = **result;
    out += ",\"found\":true,\"site\":";
    append_u64(out, path.site);
    out += ",\"rtt_ms\":";
    append_value(out, path.rtt_ms);
    out += ",\"path_km\":";
    append_value(out, path.path_km);
    out += ",\"hops\":";
    append_u64(out, path.as_path.size());
    out += '}';
    return true;
}

void query_engine::grid_csv(std::size_t stride, std::string& out) const {
    if (stride == 0) stride = 1;
    out.clear();
    out += "kind,key,v1,v2,v3\n";
    const auto asns = index_.asns();
    const auto inflations = index_.inflation_points();
    for (std::size_t i = 0; i < asns.size(); i += stride) {
        out += "inflation,";
        append_u64(out, asns[i]);
        out += ',';
        append_value(out, inflations[i].gi_ms);
        out += ',';
        if (inflations[i].has_latency) append_value(out, inflations[i].li_ms);
        out += ',';
        append_value(out, inflations[i].users);
        out += '\n';
    }
    const auto keys = index_.slash24_keys();
    const auto amortized = index_.amortized_points();
    for (std::size_t i = 0; i < keys.size(); i += stride) {
        out += "amortized,";
        append_slash24(out, keys[i]);
        out += ',';
        append_value(out, amortized[i].queries_per_day);
        out += ',';
        append_value(out, amortized[i].users);
        out += ',';
        append_value(out, amortized[i].queries_per_user_day);
        out += '\n';
    }
}

} // namespace ac::serve
