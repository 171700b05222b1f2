#include "src/sweep/spec.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ios>
#include <sstream>

namespace ac::sweep {

namespace {

const char* const known_dims[] = {"peering", "rings", "cache"};

bool known_dim(const std::string& name) {
    return std::find(std::begin(known_dims), std::end(known_dims), name) !=
           std::end(known_dims);
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw spec_error("grid spec line " + std::to_string(line) + ": " + what);
}

/// Tokens become path components of cell directories; keep them boring.
bool name_safe(const std::string& token) {
    if (token.empty()) return false;
    return std::all_of(token.begin(), token.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '.' || c == '-';
    });
}

double parse_fraction(const std::string& token, int line) {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || v < 0.0 || v > 1.0) {
        fail(line, "peering value '" + token + "' is not a fraction in [0,1]");
    }
    return v;
}

/// Applies one dim assignment to a resolved config. `line` <= 0 means the
/// values were already validated at parse time (expand path).
void apply_dim(core::world_config& config, const std::string& dim, const std::string& token,
               int line) {
    if (dim == "peering") {
        config.cdn.eyeball_peering_fraction = parse_fraction(token, line);
    } else if (dim == "rings") {
        char* end = nullptr;
        const long n = std::strtol(token.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || n < 1 ||
            n > static_cast<long>(config.cdn.ring_sizes.size())) {
            fail(line, "rings value '" + token + "' must be 1.." +
                           std::to_string(config.cdn.ring_sizes.size()));
        }
        config.cdn.ring_sizes.resize(static_cast<std::size_t>(n));
    } else if (dim == "cache") {
        if (token == "ideal") {
            config.query_model = dns::ideal_cache(config.query_model);
        } else if (token != "real") {
            fail(line, "cache value '" + token + "' must be real or ideal");
        }
    } else {
        fail(line, "unknown dim '" + dim + "'");
    }
}

} // namespace

std::size_t grid_spec::cell_count() const noexcept {
    std::size_t n = 1;
    for (const auto& d : dims) n *= d.values.size();
    return n;
}

grid_spec parse_grid_spec(std::istream& in) {
    grid_spec spec;
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
        ++line;
        if (const auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
        std::istringstream words(raw);
        std::string directive;
        if (!(words >> directive)) continue;  // blank / comment-only line
        if (directive == "tier") {
            std::string name;
            if (!(words >> name)) fail(line, "tier needs a value");
            const auto tier = core::parse_scale_tier(name);
            if (!tier) fail(line, "unknown tier '" + name + "'");
            spec.tier = *tier;
        } else if (directive == "seed") {
            if (!(words >> spec.seed)) fail(line, "seed needs an integer");
        } else if (directive == "year") {
            int y = 0;
            if (!(words >> y) || (y != 2018 && y != 2020)) {
                fail(line, "year must be 2018 or 2020");
            }
            spec.year = y == 2018 ? core::ditl_year::y2018 : core::ditl_year::y2020;
        } else if (directive == "dim") {
            grid_dimension dim;
            if (!(words >> dim.name)) fail(line, "dim needs a name");
            if (!known_dim(dim.name)) fail(line, "unknown dim '" + dim.name + "'");
            for (const auto& existing : spec.dims) {
                if (existing.name == dim.name) fail(line, "duplicate dim '" + dim.name + "'");
            }
            std::string token;
            while (words >> token) {
                if (!name_safe(token)) fail(line, "value '" + token + "' is not name-safe");
                // Validate eagerly against the tier's base config so a bad
                // spec fails before any cell builds.
                auto probe = core::world_config::for_tier(spec.tier);
                apply_dim(probe, dim.name, token, line);
                dim.values.push_back(token);
            }
            if (dim.values.empty()) fail(line, "dim '" + dim.name + "' needs values");
            spec.dims.push_back(std::move(dim));
        } else {
            fail(line, "unknown directive '" + directive + "'");
        }
        std::string trailing;
        if (words >> trailing) fail(line, "trailing token '" + trailing + "'");
    }
    return spec;
}

grid_spec parse_grid_spec_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw spec_error("grid spec: cannot open " + path);
    return parse_grid_spec(in);
}

std::vector<cell> expand_cells(const grid_spec& spec) {
    const std::size_t total = spec.cell_count();
    std::vector<cell> cells;
    cells.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        cell c;
        c.index = index;
        c.config = core::world_config::for_tier(spec.tier);
        c.config.seed = spec.seed;
        c.config.year = spec.year;
        // Row-major decode, last dim fastest — matches nested-loop order.
        std::size_t remainder = index;
        std::size_t radix = total;
        for (const auto& dim : spec.dims) {
            radix /= dim.values.size();
            const std::string& token = dim.values[remainder / radix];
            remainder %= radix;
            c.assignment.emplace_back(dim.name, token);
            apply_dim(c.config, dim.name, token, 0);
            if (!c.name.empty()) c.name += '_';
            c.name += dim.name;
            c.name += '-';
            c.name += token;
        }
        if (c.name.empty()) c.name = "base";
        c.config_hash = hash_config(c.config);
        cells.push_back(std::move(c));
    }
    return cells;
}

std::string describe_config(const core::world_config& c) {
    std::ostringstream out;
    out << std::hexfloat;
    auto f = [&](const char* key, const auto& value) { out << key << '=' << value << '\n'; };
    out << "ac-world-config-v1\n";
    f("regions.north_america", c.regions.north_america);
    f("regions.south_america", c.regions.south_america);
    f("regions.europe", c.regions.europe);
    f("regions.africa", c.regions.africa);
    f("regions.asia", c.regions.asia);
    f("regions.oceania", c.regions.oceania);
    f("regions.antarctica", c.regions.antarctica);
    f("graph.tier1_count", c.graph.tier1_count);
    f("graph.transits_per_continent", c.graph.transits_per_continent);
    f("graph.eyeball_count", c.graph.eyeball_count);
    f("graph.enterprise_count", c.graph.enterprise_count);
    f("graph.public_dns_count", c.graph.public_dns_count);
    f("graph.transit_extra_provider_p", c.graph.transit_extra_provider_p);
    f("graph.transit_peering_p", c.graph.transit_peering_p);
    f("graph.eyeball_multihome_p", c.graph.eyeball_multihome_p);
    f("graph.eyeball_ixp_peering_p", c.graph.eyeball_ixp_peering_p);
    f("graph.eyeball_last_mile_ms_min", c.graph.eyeball_last_mile_ms_min);
    f("graph.eyeball_last_mile_ms_max", c.graph.eyeball_last_mile_ms_max);
    f("users.users_per_weight", c.users.users_per_weight);
    f("users.public_dns_share", c.users.public_dns_share);
    f("users.bind_redundant_share", c.users.bind_redundant_share);
    f("users.bind_fixed_share", c.users.bind_fixed_share);
    f("users.forwarder_share", c.users.forwarder_share);
    f("users.egress_only_ip_p", c.users.egress_only_ip_p);
    f("users.min_resolver_ips", c.users.min_resolver_ips);
    f("users.max_resolver_ips", c.users.max_resolver_ips);
    f("query.tld_base", c.query_model.tld_base);
    f("query.tld_exponent", c.query_model.tld_exponent);
    f("query.max_tlds", c.query_model.max_tlds);
    f("query.ttl_days", c.query_model.ttl_days);
    f("query.refresh_median_bind_redundant", c.query_model.refresh_median_bind_redundant);
    f("query.refresh_median_bind_fixed", c.query_model.refresh_median_bind_fixed);
    f("query.refresh_median_other", c.query_model.refresh_median_other);
    f("query.refresh_sigma", c.query_model.refresh_sigma);
    f("query.chromium_probes_per_user", c.query_model.chromium_probes_per_user);
    f("query.junk_per_user_median", c.query_model.junk_per_user_median);
    f("query.junk_user_exponent", c.query_model.junk_user_exponent);
    f("query.junk_reference_users", c.query_model.junk_reference_users);
    f("query.junk_sigma", c.query_model.junk_sigma);
    f("query.ptr_per_user", c.query_model.ptr_per_user);
    f("query.preference_gamma_lo", c.query_model.preference_gamma_lo);
    f("query.preference_gamma_hi", c.query_model.preference_gamma_hi);
    f("query.preference_uniform_mix", c.query_model.preference_uniform_mix);
    f("query.tcp_share_zero_p", c.query_model.tcp_share_zero_p);
    f("query.tcp_share_median", c.query_model.tcp_share_median);
    f("query.tcp_share_sigma", c.query_model.tcp_share_sigma);
    f("ditl.ipv6_fraction", c.ditl.ipv6_fraction);
    f("ditl.private_fraction", c.ditl.private_fraction);
    f("ditl.spoofed_fraction", c.ditl.spoofed_fraction);
    f("ditl.junk_source_count", c.ditl.junk_source_count);
    f("ditl.junk_ips_per_source", c.ditl.junk_ips_per_source);
    f("ditl.junk_source_median_qpd", c.ditl.junk_source_median_qpd);
    f("ditl.junk_source_sigma", c.ditl.junk_source_sigma);
    f("ditl.min_tcp_samples", c.ditl.min_tcp_samples);
    f("ditl.capture_days", c.ditl.capture_days);
    f("ditl.per_ip_split_share", c.ditl.per_ip_split_share);
    out << "cdn.ring_sizes=";
    for (std::size_t i = 0; i < c.cdn.ring_sizes.size(); ++i) {
        if (i != 0) out << ',';
        out << c.cdn.ring_sizes[i];
    }
    out << '\n';
    f("cdn.asn", c.cdn.asn);
    f("cdn.name", c.cdn.name);
    f("cdn.eyeball_peering_fraction", c.cdn.eyeball_peering_fraction);
    f("cdn.transit_peering_fraction", c.cdn.transit_peering_fraction);
    f("cdn.wan_circuitousness", c.cdn.wan_circuitousness);
    f("cdn.seed", c.cdn.seed);
    f("telemetry.connections_per_user", c.telemetry.connections_per_user);
    f("telemetry.capture_days", c.telemetry.capture_days);
    f("telemetry.min_samples", c.telemetry.min_samples);
    f("telemetry.ring_share_sigma", c.telemetry.ring_share_sigma);
    f("telemetry.fetch_rtt_multiple", c.telemetry.fetch_rtt_multiple);
    f("atlas.probe_count", c.atlas.probe_count);
    f("atlas.europe_bias", c.atlas.europe_bias);
    f("atlas.connectivity_bias", c.atlas.connectivity_bias);
    f("atlas.seed", c.atlas.seed);
    f("geodb.wrong_region_p", c.geodb.wrong_region_p);
    f("geodb.jitter_km", c.geodb.jitter_km);
    f("ip_to_asn_unmapped", c.ip_to_asn_unmapped);
    f("root_zone_tlds", c.root_zone_tlds);
    f("year", static_cast<int>(c.year));
    f("seed", c.seed);
    return std::move(out).str();
}

std::uint64_t hash_config(const core::world_config& config) {
    const std::string text = describe_config(config);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : text) {
        h ^= static_cast<std::uint8_t>(ch);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace ac::sweep
