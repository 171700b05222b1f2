#include "src/snapshot/world_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace ac::snapshot {

namespace {

// ------------------------------------------------------- packed encoding --
// Little-endian packed streams for the small metadata sections (config,
// per-letter headers). Each section's layout is written once, as a function
// template over `io` that names its fields in order; the writer instantiates
// it with byte_sink and the reader with byte_source, so the two sides cannot
// drift apart. The reader throws errc::malformed on any size mismatch or
// out-of-range value, so a future field addition must bump the format
// version rather than silently misparse.

/// Longest vector a packed section may declare (the CDN ring list).
constexpr std::uint32_t max_packed_vector = 1024;

static_assert(sizeof(long) == 8, "telemetry.min_samples is packed as 8 bytes");

struct byte_sink {
    std::vector<std::byte> bytes;

    void put(const void* data, std::size_t n) {
        const auto* p = static_cast<const std::byte*>(data);
        bytes.insert(bytes.end(), p, p + n);
    }
    // Arithmetic fields are stored as their in-memory bytes: bool and char
    // as one byte, int as 4, long as 8.
    template <typename T>
        requires std::is_arithmetic_v<T>
    void field(T v) {
        put(&v, sizeof v);
    }
    template <typename E>
        requires std::is_enum_v<E>
    void field(E v) {
        static_assert(sizeof(E) == 1, "packed enums are one byte");
        field(static_cast<std::uint8_t>(v));
    }
    void field(const std::string& s) {
        field(static_cast<std::uint32_t>(s.size()));
        put(s.data(), s.size());
    }
    void field(const std::vector<std::int32_t>& v) {
        field(static_cast<std::uint32_t>(v.size()));
        for (const auto x : v) field(x);
    }
    template <typename... T>
    void fields(const T&... v) {
        (field(v), ...);
    }
};

struct byte_source {
    std::span<const std::byte> bytes;
    std::size_t pos = 0;
    const char* what;  // section name for error messages

    explicit byte_source(std::span<const std::byte> b, const char* section)
        : bytes(b), what(section) {}

    [[noreturn]] void fail(const char* problem) const {
        throw snapshot_error(errc::malformed, std::string{what} + " section " + problem);
    }
    void get(void* out, std::size_t n) {
        if (n > bytes.size() - pos) fail("is shorter than its schema");
        std::memcpy(out, bytes.data() + pos, n);
        pos += n;
    }
    template <typename T>
        requires std::is_arithmetic_v<T>
    void field(T& v) {
        get(&v, sizeof v);
    }
    void field(bool& v) {
        std::uint8_t b;
        field(b);
        v = b != 0;
    }
    template <typename E>
    void bounded_enum(E& v, std::uint8_t max, const char* problem) {
        std::uint8_t b;
        field(b);
        if (b > max) fail(problem);
        v = static_cast<E>(b);
    }
    void field(core::ditl_year& v) { bounded_enum(v, 1, "holds an out-of-range year"); }
    void field(dns::anonymization& v) {
        bounded_enum(v, 2, "holds an out-of-range anonymization");
    }
    void field(anycast::hosting_strategy& v) {
        bounded_enum(v, 2, "holds an out-of-range hosting strategy");
    }
    void field(std::string& s) {
        std::uint32_t n;
        field(n);
        // Check before allocating: the declared length comes from the file.
        if (n > bytes.size() - pos) fail("is shorter than its schema");
        s.assign(reinterpret_cast<const char*>(bytes.data() + pos), n);
        pos += n;
    }
    void field(std::vector<std::int32_t>& v) {
        std::uint32_t n;
        field(n);
        if (n > max_packed_vector) fail("declares an implausible vector length");
        v.resize(n);
        for (auto& x : v) field(x);
    }
    template <typename... T>
    void fields(T&... v) {
        (field(v), ...);
    }
    void finish() const {
        if (pos != bytes.size()) fail("is longer than its schema");
    }
};

// ----------------------------------------------------------- world config --

/// `world/config`. `threads` is deliberately absent: it is an execution
/// knob that never changes an output byte, and worlds built at different
/// thread counts must produce byte-identical snapshots. So is
/// `ditl.max_buffered_records`, which generation ignores (capture/ditl.h).
template <typename IO, typename Config>
void config_fields(IO& io, Config& c) {
    io.fields(c.seed, c.year, c.ip_to_asn_unmapped, c.root_zone_tlds);

    auto& r = c.regions;
    io.fields(r.north_america, r.south_america, r.europe, r.africa, r.asia, r.oceania,
              r.antarctica);

    auto& g = c.graph;
    io.fields(g.tier1_count, g.transits_per_continent, g.eyeball_count, g.enterprise_count,
              g.public_dns_count, g.transit_extra_provider_p, g.transit_peering_p,
              g.eyeball_multihome_p, g.eyeball_ixp_peering_p, g.eyeball_last_mile_ms_min,
              g.eyeball_last_mile_ms_max);

    auto& u = c.users;
    io.fields(u.users_per_weight, u.public_dns_share, u.bind_redundant_share,
              u.bind_fixed_share, u.forwarder_share, u.egress_only_ip_p, u.min_resolver_ips,
              u.max_resolver_ips);

    auto& q = c.query_model;
    io.fields(q.tld_base, q.tld_exponent, q.max_tlds, q.ttl_days,
              q.refresh_median_bind_redundant, q.refresh_median_bind_fixed,
              q.refresh_median_other, q.refresh_sigma, q.chromium_probes_per_user,
              q.junk_per_user_median, q.junk_user_exponent, q.junk_reference_users,
              q.junk_sigma, q.ptr_per_user, q.preference_gamma_lo, q.preference_gamma_hi,
              q.preference_uniform_mix, q.tcp_share_zero_p, q.tcp_share_median,
              q.tcp_share_sigma);

    auto& d = c.ditl;
    io.fields(d.ipv6_fraction, d.private_fraction, d.spoofed_fraction, d.junk_source_count,
              d.junk_ips_per_source, d.junk_source_median_qpd, d.junk_source_sigma,
              d.min_tcp_samples, d.capture_days, d.per_ip_split_share);

    auto& n = c.cdn;
    io.fields(n.ring_sizes, n.asn, n.name, n.eyeball_peering_fraction,
              n.transit_peering_fraction, n.wan_circuitousness, n.seed);

    auto& t = c.telemetry;
    io.fields(t.connections_per_user, t.capture_days, t.min_samples, t.ring_share_sigma,
              t.fetch_rtt_multiple);

    io.fields(c.atlas.probe_count, c.atlas.europe_bias, c.atlas.connectivity_bias,
              c.atlas.seed);
    io.fields(c.geodb.wrong_region_p, c.geodb.jitter_km);
}

// ------------------------------------------------------------- ditl sections

/// `ditl/<index>/<field>`.
std::string sec(std::size_t index, const char* field) {
    return "ditl/" + std::to_string(index) + "/" + field;
}

/// `ditl/<i>/meta`: the letter, its full spec and its IPv6 volume. The
/// §2.1 filter copies the spec into each filtered table, so a hydrated
/// world's tables keep `strategy` because this section stores it. The
/// reader restores `spec.letter` from the section's own letter byte.
template <typename IO, typename Capture>
void ditl_meta_fields(IO& io, Capture& lc) {
    auto& s = lc.spec;
    io.fields(lc.letter, s.strategy, s.anon, s.in_ditl, s.tcp_usable, s.complete,
              s.global_sites, s.local_sites, lc.ipv6_queries_per_day);
}

void add_letter_capture_sections(writer& w, std::size_t i, const capture::letter_capture& lc) {
    byte_sink meta;
    ditl_meta_fields(meta, lc);
    // One element spanning the payload.
    w.add_raw(sec(i, "meta"), meta.bytes.data(), meta.bytes.size(),
              static_cast<std::uint32_t>(meta.bytes.size()));

    std::vector<std::uint32_t> source_ip;
    std::vector<std::uint32_t> site;
    std::vector<std::uint8_t> category;
    std::vector<double> qpd;
    source_ip.reserve(lc.records.size());
    site.reserve(lc.records.size());
    category.reserve(lc.records.size());
    qpd.reserve(lc.records.size());
    for (const auto& r : lc.records) {
        source_ip.push_back(r.source_ip.value());
        site.push_back(r.site);
        category.push_back(static_cast<std::uint8_t>(r.category));
        qpd.push_back(r.queries_per_day);
    }
    w.add_column_encoded<std::uint32_t>(sec(i, "rec/source_ip"), source_ip);
    w.add_column_encoded<std::uint32_t>(sec(i, "rec/site"), site);
    w.add_column_encoded<std::uint8_t>(sec(i, "rec/category"), category);
    w.add_column_encoded<double>(sec(i, "rec/qpd"), qpd);

    std::vector<std::uint32_t> tcp_source;
    std::vector<std::uint32_t> tcp_site;
    std::vector<std::int32_t> tcp_samples;
    std::vector<double> tcp_median;
    std::vector<double> tcp_qpd;
    tcp_source.reserve(lc.tcp_rtts.size());
    tcp_site.reserve(lc.tcp_rtts.size());
    tcp_samples.reserve(lc.tcp_rtts.size());
    tcp_median.reserve(lc.tcp_rtts.size());
    tcp_qpd.reserve(lc.tcp_rtts.size());
    for (const auto& t : lc.tcp_rtts) {
        tcp_source.push_back(t.source.key());
        tcp_site.push_back(t.site);
        tcp_samples.push_back(t.sample_count);
        tcp_median.push_back(t.median_rtt_ms);
        tcp_qpd.push_back(t.queries_per_day);
    }
    w.add_column_encoded<std::uint32_t>(sec(i, "tcp/source"), tcp_source);
    w.add_column_encoded<std::uint32_t>(sec(i, "tcp/site"), tcp_site);
    w.add_column_encoded<std::int32_t>(sec(i, "tcp/samples"), tcp_samples);
    w.add_column_encoded<double>(sec(i, "tcp/median"), tcp_median);
    w.add_column_encoded<double>(sec(i, "tcp/qpd"), tcp_qpd);
}

capture::letter_capture read_letter_capture(const bundle& b, std::size_t i) {
    capture::letter_capture lc;
    byte_source meta{b.raw(sec(i, "meta")), "ditl meta"};
    ditl_meta_fields(meta, lc);
    meta.finish();
    lc.spec.letter = lc.letter;

    const auto source_ip = b.typed_column<std::uint32_t>(sec(i, "rec/source_ip"));
    const auto site = b.typed_column<std::uint32_t>(sec(i, "rec/site"));
    const auto category = b.typed_column<std::uint8_t>(sec(i, "rec/category"));
    const auto qpd = b.typed_column<double>(sec(i, "rec/qpd"));
    if (site.size() != source_ip.size() || category.size() != source_ip.size() ||
        qpd.size() != source_ip.size()) {
        throw snapshot_error(errc::malformed, "ditl record columns disagree on row count");
    }
    lc.records.resize(source_ip.size());
    for (std::size_t r = 0; r < source_ip.size(); ++r) {
        if (category[r] > 2) {
            throw snapshot_error(errc::malformed, "ditl record category out of range");
        }
        lc.records[r] = capture::capture_record{net::ipv4_addr{source_ip[r]}, site[r],
                                                static_cast<capture::query_category>(
                                                    category[r]),
                                                qpd[r]};
    }

    const auto tcp_source = b.typed_column<std::uint32_t>(sec(i, "tcp/source"));
    const auto tcp_site = b.typed_column<std::uint32_t>(sec(i, "tcp/site"));
    const auto tcp_samples = b.typed_column<std::int32_t>(sec(i, "tcp/samples"));
    const auto tcp_median = b.typed_column<double>(sec(i, "tcp/median"));
    const auto tcp_qpd = b.typed_column<double>(sec(i, "tcp/qpd"));
    if (tcp_site.size() != tcp_source.size() || tcp_samples.size() != tcp_source.size() ||
        tcp_median.size() != tcp_source.size() || tcp_qpd.size() != tcp_source.size()) {
        throw snapshot_error(errc::malformed, "ditl tcp columns disagree on row count");
    }
    lc.tcp_rtts.resize(tcp_source.size());
    for (std::size_t r = 0; r < tcp_source.size(); ++r) {
        lc.tcp_rtts[r] = capture::tcp_latency_row{
            net::slash24{net::ipv4_addr{tcp_source[r] << 8}}, tcp_site[r], tcp_samples[r],
            tcp_median[r], tcp_qpd[r]};
    }
    return lc;
}

// ------------------------------------------------------- telemetry sections

void add_server_log_sections(writer& w, const cdn::server_log_table& t) {
    w.add_column_encoded("server/asn", t.asn.view());
    w.add_column_encoded("server/region", t.region.view());
    w.add_column_encoded("server/ring", t.ring.view());
    w.add_column_encoded("server/front_end", t.front_end.view());
    w.add_column_encoded("server/median_rtt_ms", t.median_rtt_ms.view());
    w.add_column_encoded("server/samples", t.sample_count.view());
    w.add_column_encoded("server/users", t.users.view());
    w.add_column_encoded("server/front_end_km", t.front_end_km.view());
}

void add_client_sections(writer& w, std::span<const cdn::client_measurement_row> rows) {
    std::vector<std::uint32_t> asn;
    std::vector<std::uint32_t> region;
    std::vector<std::int32_t> ring;
    std::vector<double> fetch;
    std::vector<std::int64_t> samples;
    std::vector<double> users;
    asn.reserve(rows.size());
    region.reserve(rows.size());
    ring.reserve(rows.size());
    fetch.reserve(rows.size());
    samples.reserve(rows.size());
    users.reserve(rows.size());
    for (const auto& r : rows) {
        asn.push_back(r.asn);
        region.push_back(r.region);
        ring.push_back(r.ring);
        fetch.push_back(r.median_fetch_ms);
        samples.push_back(r.sample_count);
        users.push_back(r.users);
    }
    w.add_column_encoded<std::uint32_t>("client/asn", asn);
    w.add_column_encoded<std::uint32_t>("client/region", region);
    w.add_column_encoded<std::int32_t>("client/ring", ring);
    w.add_column_encoded<double>("client/median_fetch_ms", fetch);
    w.add_column_encoded<std::int64_t>("client/samples", samples);
    w.add_column_encoded<double>("client/users", users);
}

// ------------------------------------------------------ population sections

void add_population_sections(writer& w, const pop::cdn_user_counts& cdn_counts,
                             const pop::apnic_user_counts& apnic_counts) {
    const auto blocks = cdn_counts.block_entries();
    const auto ips = cdn_counts.ip_entries();
    std::vector<std::uint32_t> keys;
    std::vector<double> users;
    keys.reserve(blocks.size());
    users.reserve(blocks.size());
    for (const auto& e : blocks) {
        keys.push_back(e.key);
        users.push_back(e.users);
    }
    w.add_column_encoded<std::uint32_t>("pop/cdn/block_key", keys);
    w.add_column_encoded<double>("pop/cdn/block_users", users);
    keys.clear();
    users.clear();
    for (const auto& e : ips) {
        keys.push_back(e.key);
        users.push_back(e.users);
    }
    w.add_column_encoded<std::uint32_t>("pop/cdn/ip_key", keys);
    w.add_column_encoded<double>("pop/cdn/ip_users", users);
    w.add_scalar<double>("pop/cdn/total", cdn_counts.total_observed_users());

    const auto apnic = apnic_counts.entries();
    std::vector<std::uint32_t> asns;
    users.clear();
    asns.reserve(apnic.size());
    for (const auto& e : apnic) {
        asns.push_back(e.asn);
        users.push_back(e.users);
    }
    w.add_column_encoded<std::uint32_t>("pop/apnic/asn", asns);
    w.add_column_encoded<double>("pop/apnic/users", users);
}

std::vector<pop::cdn_user_counts::entry> read_entry_pairs(const bundle& b,
                                                          std::string_view key_section,
                                                          std::string_view user_section) {
    const auto keys = b.typed_column<std::uint32_t>(key_section);
    const auto users = b.typed_column<double>(user_section);
    if (keys.size() != users.size()) {
        throw snapshot_error(errc::malformed, "population key/user columns disagree");
    }
    std::vector<pop::cdn_user_counts::entry> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        out[i] = pop::cdn_user_counts::entry{keys[i], users[i]};
    }
    return out;
}

} // namespace

// ------------------------------------------------------------- public API --

std::vector<std::byte> encode_config(const core::world_config& config) {
    byte_sink s;
    config_fields(s, config);
    return std::move(s.bytes);
}

void add_ditl_sections(writer& w, const capture::ditl_dataset& dataset) {
    w.add_scalar<std::uint32_t>("ditl/letter_count",
                                static_cast<std::uint32_t>(dataset.letters.size()));
    for (std::size_t i = 0; i < dataset.letters.size(); ++i) {
        add_letter_capture_sections(w, i, dataset.letters[i]);
    }
}

std::vector<std::byte> encode_ditl(const capture::ditl_dataset& dataset) {
    writer w;
    add_ditl_sections(w, dataset);
    return w.finish();
}

void save_ditl(const capture::ditl_dataset& dataset, const std::string& path) {
    writer w;
    add_ditl_sections(w, dataset);
    w.write_file(path);
}

std::vector<std::byte> encode_world(const core::world& world,
                                    std::uint32_t container_version) {
    writer w{container_version};
    const auto config = encode_config(world.config());
    w.add_raw("world/config", config.data(), config.size());

    w.add_scalar<std::uint32_t>("space/next_key", world.space().allocated_slash24s());
    const auto ranges = world.space().export_ranges();
    std::vector<std::uint32_t> packed;
    packed.reserve(ranges.size() * 4);
    for (const auto& r : ranges) {
        packed.push_back(r.first_key);
        packed.push_back(r.last_key);
        packed.push_back(r.asn);
        packed.push_back(r.region);
    }
    w.add_raw("space/ranges", packed.data(), packed.size() * sizeof(std::uint32_t),
              4 * sizeof(std::uint32_t));

    add_ditl_sections(w, world.ditl());
    add_server_log_sections(w, world.server_log_table());
    add_client_sections(w, world.client_measurements());
    add_population_sections(w, world.cdn_user_counts(), world.apnic_user_counts());
    return w.finish();
}

void save_world(const core::world& world, const std::string& path,
                std::uint32_t container_version) {
    // finish() is already deterministic; writing the image directly keeps
    // the file byte-identical to encode_world()'s bytes.
    const auto image = encode_world(world, container_version);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        throw snapshot_error(errc::io, "cannot open '" + path + "' for writing");
    }
    const std::size_t written = std::fwrite(image.data(), 1, image.size(), f);
    const int close_rc = std::fclose(f);
    if (written != image.size() || close_rc != 0) {
        std::remove(path.c_str());
        throw snapshot_error(errc::io, "short write to '" + path + "'");
    }
}

bool has_world(const bundle& b) { return b.has("world/config"); }

core::world_config read_config(const bundle& b) {
    byte_source s{b.raw("world/config"), "world config"};
    core::world_config config;
    config_fields(s, config);
    s.finish();
    return config;
}

// The letter counts come from the file, so they are never reserved up
// front: a count past the stored letters stops at the first missing
// section (errc::section_missing).

capture::ditl_dataset read_ditl(const bundle& b) {
    capture::ditl_dataset dataset;
    const auto count = b.scalar<std::uint32_t>("ditl/letter_count");
    for (std::uint32_t i = 0; i < count; ++i) {
        dataset.letters.push_back(read_letter_capture(b, i));
    }
    return dataset;
}

cdn::server_log_table read_server_log_table(const bundle& b) {
    cdn::server_log_table t;
    t.asn = b.typed_column<std::uint32_t>("server/asn");
    t.region = b.typed_column<std::uint32_t>("server/region");
    t.ring = b.typed_column<std::int32_t>("server/ring");
    t.front_end = b.typed_column<std::int32_t>("server/front_end");
    t.median_rtt_ms = b.typed_column<double>("server/median_rtt_ms");
    t.sample_count = b.typed_column<std::int64_t>("server/samples");
    t.users = b.typed_column<double>("server/users");
    t.front_end_km = b.typed_column<double>("server/front_end_km");
    const auto rows = t.asn.size();
    if (t.region.size() != rows || t.ring.size() != rows || t.front_end.size() != rows ||
        t.median_rtt_ms.size() != rows || t.sample_count.size() != rows ||
        t.users.size() != rows || t.front_end_km.size() != rows) {
        throw snapshot_error(errc::malformed, "server log columns disagree on row count");
    }
    return t;
}

std::vector<cdn::client_measurement_row> read_client_rows(const bundle& b) {
    const auto asn = b.typed_column<std::uint32_t>("client/asn");
    const auto region = b.typed_column<std::uint32_t>("client/region");
    const auto ring = b.typed_column<std::int32_t>("client/ring");
    const auto fetch = b.typed_column<double>("client/median_fetch_ms");
    const auto samples = b.typed_column<std::int64_t>("client/samples");
    const auto users = b.typed_column<double>("client/users");
    if (region.size() != asn.size() || ring.size() != asn.size() ||
        fetch.size() != asn.size() || samples.size() != asn.size() ||
        users.size() != asn.size()) {
        throw snapshot_error(errc::malformed, "client columns disagree on row count");
    }
    std::vector<cdn::client_measurement_row> rows(asn.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = cdn::client_measurement_row{asn[i], region[i], ring[i],
                                              fetch[i], samples[i], users[i]};
    }
    return rows;
}

namespace {

struct world_parts {
    core::world_config config;
    core::world_datasets data;
};

world_parts read_world_parts(const std::shared_ptr<const bundle>& b, int threads_override) {
    if (!has_world(*b)) {
        throw snapshot_error(errc::section_missing,
                             "not a world snapshot (no world/config section) — a DITL-only "
                             "snapshot cannot hydrate a world");
    }
    auto config = read_config(*b);
    if (threads_override >= 0) config.threads = threads_override;

    core::world_datasets data;
    data.ditl = read_ditl(*b);
    data.server_log_table = read_server_log_table(*b);
    // Analyses look these ids up in the region table; one the stored config
    // does not build is a malformed file, not an analysis error.
    const auto region_count = static_cast<std::uint32_t>(std::max(config.regions.total(), 0));
    for (const std::uint32_t region : data.server_log_table.region.view()) {
        if (region >= region_count) {
            throw snapshot_error(errc::malformed, "server/region names a region outside the world");
        }
    }
    data.client_rows = read_client_rows(*b);
    const auto ring_count = static_cast<std::int64_t>(config.cdn.ring_sizes.size());
    for (const auto& row : data.client_rows) {
        if (row.ring < 0 || row.ring >= ring_count) {
            throw snapshot_error(errc::malformed, "client/ring names a ring outside the world");
        }
    }
    data.cdn_count_blocks = read_entry_pairs(*b, "pop/cdn/block_key", "pop/cdn/block_users");
    data.cdn_count_ips = read_entry_pairs(*b, "pop/cdn/ip_key", "pop/cdn/ip_users");
    data.cdn_count_total = b->scalar<double>("pop/cdn/total");
    const auto apnic = read_entry_pairs(*b, "pop/apnic/asn", "pop/apnic/users");
    data.apnic_counts.reserve(apnic.size());
    for (const auto& e : apnic) {
        data.apnic_counts.push_back(pop::apnic_user_counts::entry{e.key, e.users});
    }

    const auto ranges_raw = b->raw("space/ranges");
    const auto& ranges_info = b->section("space/ranges");
    if (ranges_info.elem_size != 16 || ranges_raw.size() % 16 != 0) {
        throw snapshot_error(errc::malformed, "space/ranges has an unexpected stride");
    }
    const std::size_t range_count = ranges_raw.size() / 16;
    data.space_ranges.resize(range_count);
    for (std::size_t i = 0; i < range_count; ++i) {
        std::uint32_t fields[4];
        std::memcpy(fields, ranges_raw.data() + i * 16, sizeof fields);
        data.space_ranges[i] =
            topo::address_space::raw_range{fields[0], fields[1], fields[2], fields[3]};
    }
    data.space_next_key = b->scalar<std::uint32_t>("space/next_key");
    data.retain = std::shared_ptr<const void>{b, b.get()};

    return world_parts{std::move(config), std::move(data)};
}

} // namespace

core::world hydrate_world(std::shared_ptr<const bundle> b, int threads_override) {
    auto parts = read_world_parts(b, threads_override);
    return core::world{std::move(parts.config), std::move(parts.data)};
}

std::unique_ptr<core::world> hydrate_world_ptr(std::shared_ptr<const bundle> b,
                                               int threads_override) {
    auto parts = read_world_parts(b, threads_override);
    return std::make_unique<core::world>(std::move(parts.config), std::move(parts.data));
}

} // namespace ac::snapshot
