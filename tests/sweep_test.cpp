// Sweep harness tests: grid spec parsing and cell expansion, the config
// hash (every knob moves it and survives the snapshot round trip), and the
// driver's core contracts — thread-count byte-identity of a whole grid on
// disk, manifest resume without recompute, and config-hash mismatches
// forcing re-runs (DESIGN §15).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/world.h"
#include "src/snapshot/world_io.h"
#include "src/sweep/driver.h"
#include "src/sweep/spec.h"

namespace {

using namespace ac;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// grid specs
// ---------------------------------------------------------------------------

sweep::grid_spec parse(const std::string& text) {
    std::istringstream in{text};
    return sweep::parse_grid_spec(in);
}

TEST(GridSpec, ParsesDirectivesAndComments) {
    const auto spec = parse(
        "# a comment\n"
        "tier small\n"
        "seed 7\n"
        "year 2020\n"
        "\n"
        "dim peering 0.3 0.72   # trailing comment\n"
        "dim rings 3 5\n"
        "dim cache real ideal\n");
    EXPECT_EQ(spec.tier, core::scale_tier::small);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.year, core::ditl_year::y2020);
    ASSERT_EQ(spec.dims.size(), 3u);
    EXPECT_EQ(spec.cell_count(), 8u);
}

TEST(GridSpec, RejectsBadInput) {
    EXPECT_THROW(parse("tier huge\n"), sweep::spec_error);
    EXPECT_THROW(parse("year 2019\n"), sweep::spec_error);
    EXPECT_THROW(parse("seed banana\n"), sweep::spec_error);
    EXPECT_THROW(parse("dim peering 1.5\n"), sweep::spec_error);   // fraction > 1
    EXPECT_THROW(parse("dim rings 0\n"), sweep::spec_error);       // below 1
    EXPECT_THROW(parse("dim rings 99\n"), sweep::spec_error);      // more than exist
    EXPECT_THROW(parse("dim cache magic\n"), sweep::spec_error);   // unknown token
    EXPECT_THROW(parse("dim flavor a b\n"), sweep::spec_error);    // unknown dim
    EXPECT_THROW(parse("dim rings 3\ndim rings 5\n"), sweep::spec_error);  // duplicate
    EXPECT_THROW(parse("dim rings 3 3\n"), sweep::spec_error);    // repeated value
    EXPECT_THROW(parse("dim peering 0.3 0.30\n"), sweep::spec_error);  // same config
    EXPECT_THROW(parse("dim rings 3 03\n"), sweep::spec_error);        // same config
    EXPECT_THROW(parse("tier small extra\n"), sweep::spec_error);  // trailing token
    EXPECT_THROW(parse("wat 1\n"), sweep::spec_error);             // unknown directive
    // The message names the offending line.
    try {
        parse("tier small\ndim rings 0\n");
        FAIL() << "expected spec_error";
    } catch (const sweep::spec_error& err) {
        EXPECT_NE(std::string{err.what()}.find("line 2"), std::string::npos) << err.what();
    }
    try {
        parse("tier small\ndim rings 3\ndim peering 0.5 0.50\n");
        FAIL() << "expected spec_error";
    } catch (const sweep::spec_error& err) {
        EXPECT_NE(std::string{err.what()}.find("line 3"), std::string::npos) << err.what();
        EXPECT_NE(std::string{err.what()}.find("same config as '0.5'"), std::string::npos)
            << err.what();
    }
}

TEST(GridSpec, ExpandsRowMajorWithLastDimFastest) {
    const auto cells = sweep::expand_cells(parse(
        "tier small\n"
        "dim peering 0.3 0.72\n"
        "dim rings 3 5\n"));
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "peering-0.3_rings-3");
    EXPECT_EQ(cells[1].name, "peering-0.3_rings-5");
    EXPECT_EQ(cells[2].name, "peering-0.72_rings-3");
    EXPECT_EQ(cells[3].name, "peering-0.72_rings-5");
    for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);

    EXPECT_EQ(cells[0].config.cdn.eyeball_peering_fraction, 0.3);
    EXPECT_EQ(cells[3].config.cdn.eyeball_peering_fraction, 0.72);
    EXPECT_EQ(cells[0].config.cdn.ring_sizes.size(), 3u);
    EXPECT_EQ(cells[1].config.cdn.ring_sizes.size(), 5u);

    // Hashes separate every cell from every other cell.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j) {
            EXPECT_NE(cells[i].config_hash, cells[j].config_hash) << i << " vs " << j;
        }
    }

    const auto single = sweep::expand_cells(parse("tier small\n"));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].name, "base");
}

// Moves a knob to a different value that still decodes.
template <typename T>
T bumped(T v) {
    if constexpr (std::is_floating_point_v<T>) {
        return v + 0.125;
    } else {
        return v + 1;
    }
}
std::string bumped(const std::string& v) { return v + "x"; }
std::vector<int> bumped(std::vector<int> v) {
    v.push_back(v.back() + 1);
    return v;
}
core::ditl_year bumped(core::ditl_year y) {
    return y == core::ditl_year::y2018 ? core::ditl_year::y2020 : core::ditl_year::y2018;
}

struct knob {
    const char* name;
    void (*bump)(core::world_config&);
    bool (*same)(const core::world_config&, const core::world_config&);
};

#define KNOB(path)                                                                     \
    knob {                                                                             \
        #path, [](core::world_config& c) { c.path = bumped(c.path); },                 \
            [](const core::world_config& a, const core::world_config& b) {             \
                return a.path == b.path;                                               \
            }                                                                          \
    }

// Every world_config knob that can change an output byte. Kept here, apart
// from the snapshot's own field list, so a knob that list drops fails below.
const knob every_knob[] = {
    KNOB(seed), KNOB(year), KNOB(ip_to_asn_unmapped), KNOB(root_zone_tlds),
    KNOB(regions.north_america), KNOB(regions.south_america), KNOB(regions.europe),
    KNOB(regions.africa), KNOB(regions.asia), KNOB(regions.oceania),
    KNOB(regions.antarctica),
    KNOB(graph.tier1_count), KNOB(graph.transits_per_continent), KNOB(graph.eyeball_count),
    KNOB(graph.enterprise_count), KNOB(graph.public_dns_count),
    KNOB(graph.transit_extra_provider_p), KNOB(graph.transit_peering_p),
    KNOB(graph.eyeball_multihome_p), KNOB(graph.eyeball_ixp_peering_p),
    KNOB(graph.eyeball_last_mile_ms_min), KNOB(graph.eyeball_last_mile_ms_max),
    KNOB(users.users_per_weight), KNOB(users.public_dns_share),
    KNOB(users.bind_redundant_share), KNOB(users.bind_fixed_share),
    KNOB(users.forwarder_share), KNOB(users.egress_only_ip_p), KNOB(users.min_resolver_ips),
    KNOB(users.max_resolver_ips),
    KNOB(query_model.tld_base), KNOB(query_model.tld_exponent), KNOB(query_model.max_tlds),
    KNOB(query_model.ttl_days), KNOB(query_model.refresh_median_bind_redundant),
    KNOB(query_model.refresh_median_bind_fixed), KNOB(query_model.refresh_median_other),
    KNOB(query_model.refresh_sigma), KNOB(query_model.chromium_probes_per_user),
    KNOB(query_model.junk_per_user_median), KNOB(query_model.junk_user_exponent),
    KNOB(query_model.junk_reference_users), KNOB(query_model.junk_sigma),
    KNOB(query_model.ptr_per_user), KNOB(query_model.preference_gamma_lo),
    KNOB(query_model.preference_gamma_hi), KNOB(query_model.preference_uniform_mix),
    KNOB(query_model.tcp_share_zero_p), KNOB(query_model.tcp_share_median),
    KNOB(query_model.tcp_share_sigma),
    KNOB(ditl.ipv6_fraction), KNOB(ditl.private_fraction), KNOB(ditl.spoofed_fraction),
    KNOB(ditl.junk_source_count), KNOB(ditl.junk_ips_per_source),
    KNOB(ditl.junk_source_median_qpd), KNOB(ditl.junk_source_sigma),
    KNOB(ditl.min_tcp_samples), KNOB(ditl.capture_days), KNOB(ditl.per_ip_split_share),
    KNOB(cdn.ring_sizes), KNOB(cdn.asn), KNOB(cdn.name), KNOB(cdn.eyeball_peering_fraction),
    KNOB(cdn.transit_peering_fraction), KNOB(cdn.wan_circuitousness), KNOB(cdn.seed),
    KNOB(telemetry.connections_per_user), KNOB(telemetry.capture_days),
    KNOB(telemetry.min_samples), KNOB(telemetry.ring_share_sigma),
    KNOB(telemetry.fetch_rtt_multiple),
    KNOB(atlas.probe_count), KNOB(atlas.europe_bias), KNOB(atlas.connectivity_bias),
    KNOB(atlas.seed),
    KNOB(geodb.wrong_region_p), KNOB(geodb.jitter_km),
};

#undef KNOB

core::world_config round_trip_config(std::span<const std::byte> bytes) {
    snapshot::writer w;
    w.add_raw("world/config", bytes.data(), bytes.size());
    return snapshot::read_config(*snapshot::bundle::from_bytes(w.finish()));
}

TEST(GridSpec, HashIgnoresThreadsButSeesEveryKnob) {
    const auto base = core::world_config::small();
    const auto base_hash = sweep::hash_config(base);

    auto threaded = base;
    threaded.threads = 8;
    EXPECT_EQ(sweep::hash_config(threaded), base_hash) << "threads must not force re-runs";

    auto buffered = base;
    buffered.ditl.max_buffered_records = 512;
    EXPECT_EQ(sweep::hash_config(buffered), base_hash)
        << "an option DITL generation ignores must not force re-runs";

    // Each knob in turn: the key moves, the snapshot carries the new value,
    // and the decoded config re-encodes to the same bytes.
    std::set<std::uint64_t> hashes{base_hash};
    for (const auto& k : every_knob) {
        SCOPED_TRACE(k.name);
        auto config = base;
        k.bump(config);
        ASSERT_FALSE(k.same(config, base));
        const auto hash = sweep::hash_config(config);
        EXPECT_NE(hash, base_hash);
        hashes.insert(hash);

        const auto bytes = snapshot::encode_config(config);
        const auto decoded = round_trip_config(bytes);
        EXPECT_TRUE(k.same(decoded, config)) << "the snapshot drops this knob";
        EXPECT_EQ(snapshot::encode_config(decoded), bytes);
    }
    EXPECT_EQ(hashes.size(), std::size(every_knob) + 1) << "two knobs share a key";
}

TEST(GridSpec, IdealCacheCollapsesRefreshes) {
    const auto cells = sweep::expand_cells(parse("tier small\ndim cache real ideal\n"));
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].name, "cache-real");
    EXPECT_EQ(cells[1].name, "cache-ideal");
    EXPECT_EQ(cells[1].config.query_model.refresh_sigma, 0.0);
    EXPECT_NE(cells[0].config.query_model.refresh_sigma,
              cells[1].config.query_model.refresh_sigma);
    EXPECT_NE(cells[0].config_hash, cells[1].config_hash);
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

class SweepDriver : public ::testing::Test {
protected:
    static sweep::grid_spec grid() {
        return parse(
            "tier small\n"
            "seed 42\n"
            "dim peering 0.3 0.72\n"
            "dim rings 3 5\n");
    }

    void SetUp() override {
        // Unique per test: gtest_discover_tests runs every case as its own
        // process, so under `ctest -j` cases run concurrently.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = fs::temp_directory_path() / (std::string{"ac_sweep_test_"} + info->name());
        fs::remove_all(root_);
        fs::create_directories(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    [[nodiscard]] fs::path dir(const std::string& name) const { return root_ / name; }

    /// Every regular file under `tree`, as relative path -> content bytes.
    static std::map<std::string, std::string> slurp_tree(const fs::path& tree) {
        std::map<std::string, std::string> files;
        for (const auto& entry : fs::recursive_directory_iterator(tree)) {
            if (!entry.is_regular_file()) continue;
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            files[fs::relative(entry.path(), tree).string()] = std::move(bytes).str();
        }
        return files;
    }

    static void expect_identical_trees(const fs::path& a, const fs::path& b) {
        const auto ta = slurp_tree(a);
        const auto tb = slurp_tree(b);
        ASSERT_EQ(ta.size(), tb.size()) << a << " vs " << b;
        for (const auto& [rel, bytes] : ta) {
            const auto it = tb.find(rel);
            ASSERT_NE(it, tb.end()) << rel << " missing from " << b;
            EXPECT_EQ(bytes == it->second, true) << rel << " differs between " << a
                                                 << " and " << b;
        }
    }

private:
    fs::path root_;
};

TEST_F(SweepDriver, GridIsByteIdenticalAcrossThreadCounts) {
    for (const int threads : {1, 2, 8}) {
        sweep::sweep_options options;
        options.threads = threads;
        const auto result =
            sweep::run_grid(grid(), dir("t" + std::to_string(threads)).string(), options);
        EXPECT_EQ(result.built, 4u);
        EXPECT_EQ(result.skipped, 0u);
    }
    expect_identical_trees(dir("t1"), dir("t2"));
    expect_identical_trees(dir("t1"), dir("t8"));
}

TEST_F(SweepDriver, ResumesWithoutRecomputeAndMatchesOneShot) {
    sweep::sweep_options options;
    options.threads = 1;
    const auto oneshot = sweep::run_grid(grid(), dir("oneshot").string(), options);
    ASSERT_EQ(oneshot.built, 4u);

    // First run stops after one cell (a stand-in for a killed run: the
    // manifest is rewritten after every cell, so stopping early leaves the
    // same on-disk state as a kill between cells).
    options.max_cells = 1;
    const auto partial = sweep::run_grid(grid(), dir("resumed").string(), options);
    EXPECT_EQ(partial.built, 1u);
    EXPECT_EQ(partial.pending, 3u);

    options.max_cells = 0;
    const auto finished = sweep::run_grid(grid(), dir("resumed").string(), options);
    EXPECT_EQ(finished.built, 3u) << "resume must not rebuild the finished cell";
    EXPECT_EQ(finished.skipped, 1u);
    EXPECT_EQ(finished.pending, 0u);
    expect_identical_trees(dir("oneshot"), dir("resumed"));

    // A third run over the complete grid builds nothing at all.
    const auto idle = sweep::run_grid(grid(), dir("resumed").string(), options);
    EXPECT_EQ(idle.built, 0u);
    EXPECT_EQ(idle.skipped, 4u);
}

TEST_F(SweepDriver, ConfigHashMismatchForcesRerun) {
    sweep::sweep_options options;
    options.threads = 1;
    ASSERT_EQ(sweep::run_grid(grid(), dir("g").string(), options).built, 4u);

    // Same cell names, different base seed: every hash changes, so the
    // driver must distrust all four directories and rebuild them.
    auto reseeded = grid();
    reseeded.seed = 43;
    const auto rerun = sweep::run_grid(reseeded, dir("g").string(), options);
    EXPECT_EQ(rerun.built, 4u);
    EXPECT_EQ(rerun.skipped, 0u);

    // And the reseeded grid matches a fresh reseeded one-shot.
    ASSERT_EQ(sweep::run_grid(reseeded, dir("fresh43").string(), options).built, 4u);
    expect_identical_trees(dir("g"), dir("fresh43"));
}

TEST_F(SweepDriver, MalformedManifestDegradesToFullRebuild) {
    sweep::sweep_options options;
    options.threads = 1;
    ASSERT_EQ(sweep::run_grid(grid(), dir("g").string(), options).built, 4u);

    std::ofstream(dir("g") / "manifest.tsv", std::ios::trunc) << "not a manifest\n";
    const auto rerun = sweep::run_grid(grid(), dir("g").string(), options);
    EXPECT_EQ(rerun.built, 4u) << "a corrupt manifest must never be trusted";
    EXPECT_EQ(rerun.skipped, 0u);
}

TEST_F(SweepDriver, MissingCellFileForcesRerunOfThatCellOnly) {
    sweep::sweep_options options;
    options.threads = 1;
    ASSERT_EQ(sweep::run_grid(grid(), dir("g").string(), options).built, 4u);

    fs::remove(dir("g") / "peering-0.3_rings-5" / "metrics.json");
    const auto rerun = sweep::run_grid(grid(), dir("g").string(), options);
    EXPECT_EQ(rerun.built, 1u);
    EXPECT_EQ(rerun.skipped, 3u);
    ASSERT_EQ(rerun.cells.size(), 4u);
    EXPECT_TRUE(rerun.cells[1].built) << "the damaged cell rebuilds";
    EXPECT_TRUE(rerun.cells[0].skipped);
}

} // namespace
