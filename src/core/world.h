// The study world: one object owning every substrate and dataset, built in
// dependency order from a single seed. Benches and examples construct a
// `world` and run analysis functions over its members; two worlds with the
// same config are bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/atlas/atlas.h"
#include "src/capture/ditl.h"
#include "src/engine/stage_graph.h"
#include "src/engine/thread_pool.h"
#include "src/capture/filter.h"
#include "src/cdn/cdn.h"
#include "src/cdn/telemetry.h"
#include "src/dns/query_model.h"
#include "src/dns/root_letters.h"
#include "src/dns/zone.h"
#include "src/population/population.h"
#include "src/topology/addressing.h"
#include "src/topology/as_graph.h"
#include "src/topology/generator.h"
#include "src/topology/region.h"

namespace ac::core {

enum class ditl_year : std::uint8_t { y2018, y2020 };

/// Named world sizes. `small` is the unit-test world, `medium` is the paper's
/// scale (the historical default config, still spelled `full` on the CLI),
/// `large` is the production-scale tier: hundreds of CDN front-ends, a few
/// thousand ASes, hundreds of millions of users, and DITL synthesis running
/// through the bounded ring/spill writer so generation never holds more than
/// a fixed number of capture rows in RAM beyond the finished dataset.
enum class scale_tier : std::uint8_t { small, medium, large };

[[nodiscard]] std::string_view to_string(scale_tier tier) noexcept;
/// Parses "small" / "medium" / "large"; "full" is accepted as a legacy alias
/// for medium. Returns nullopt for anything else.
[[nodiscard]] std::optional<scale_tier> parse_scale_tier(std::string_view name) noexcept;

struct world_config {
    topo::region_plan regions{};
    topo::graph_plan graph{};
    pop::user_base_plan users{};
    dns::query_model_options query_model{};
    capture::ditl_options ditl{};
    cdn::cdn_plan cdn{};
    cdn::telemetry_options telemetry{};
    atlas::fleet_plan atlas{};
    topo::geo_database::options geodb{};
    double ip_to_asn_unmapped = 0.006;  // paper: 99.4% mapped
    int root_zone_tlds = 1400;
    ditl_year year = ditl_year::y2018;
    std::uint64_t seed = 42;
    /// Construction threads: 0 = hardware concurrency, 1 = serial (bypasses
    /// the pool), N = N workers. Thread count never changes a single output
    /// byte: parallel generators draw from per-item keyed RNG streams
    /// (engine/stream_rng.h) and merge in item order.
    int threads = 0;

    /// A smaller world for unit tests (fewer ASes, fewer sources).
    [[nodiscard]] static world_config small();
    /// The paper-scale world — identical to a default-constructed config.
    [[nodiscard]] static world_config medium();
    /// The production-scale tier (see scale_tier docs). Streamed DITL
    /// generation is on by default here (ditl.max_buffered_records != 0).
    [[nodiscard]] static world_config large();
    [[nodiscard]] static world_config for_tier(scale_tier tier);
};

/// Pre-generated datasets injected into a world instead of being synthesized
/// — the hydration path for `src/snapshot/` (snapshot::hydrate_world builds
/// one of these from a loaded bundle). The substrate (regions, graph, roots,
/// CDN, fleet, databases) is still rebuilt deterministically from the
/// config/seed; only the expensive dataset stages are replaced. Columnar
/// tables may hold borrowed columns pointing into `retain` (e.g. an mmap'd
/// snapshot), which the world keeps alive.
struct world_datasets {
    capture::ditl_dataset ditl;
    std::vector<capture::letter_table> filtered_tables;
    std::vector<cdn::server_log_row> server_logs;
    cdn::server_log_table server_log_table;
    std::vector<cdn::client_measurement_row> client_rows;
    std::vector<pop::cdn_user_counts::entry> cdn_count_blocks;
    std::vector<pop::cdn_user_counts::entry> cdn_count_ips;
    double cdn_count_total = 0.0;
    std::vector<pop::apnic_user_counts::entry> apnic_counts;
    /// Final address-space allocation history (includes the junk /24s the
    /// skipped DITL generator would have allocated).
    std::vector<topo::address_space::raw_range> space_ranges;
    std::uint32_t space_next_key = 0;
    /// Keeps external backing storage (snapshot mapping) alive.
    std::shared_ptr<const void> retain;
};

class world {
public:
    explicit world(world_config config);

    /// Hydrates a world from pre-generated datasets: substrate stages run
    /// exactly as in a live build, dataset stages are restored from `data`.
    /// Figures from a hydrated world are byte-identical to the live world
    /// that exported the datasets. `profiles()` is left empty — per-recursive
    /// query profiles only feed DITL synthesis, which hydration skips.
    world(world_config config, world_datasets data);

    /// Non-copyable and non-movable: subsystems hold pointers into sibling
    /// members (letter RIBs point at `graph_` and `regions_`), so relocating
    /// a world would dangle them. Factory returns still work — a prvalue
    /// `return world{...}` constructs in place under guaranteed elision.
    world(const world&) = delete;
    world& operator=(const world&) = delete;
    world(world&&) = delete;
    world& operator=(world&&) = delete;

    [[nodiscard]] const world_config& config() const noexcept { return config_; }
    [[nodiscard]] const topo::region_table& regions() const noexcept { return regions_; }
    [[nodiscard]] const topo::as_graph& graph() const noexcept { return graph_; }
    [[nodiscard]] const topo::address_space& space() const noexcept { return space_; }
    [[nodiscard]] const pop::user_base& users() const noexcept { return *users_; }
    [[nodiscard]] const pop::cdn_user_counts& cdn_user_counts() const noexcept {
        return *cdn_counts_;
    }
    [[nodiscard]] const pop::apnic_user_counts& apnic_user_counts() const noexcept {
        return *apnic_counts_;
    }
    [[nodiscard]] const dns::root_system& roots() const noexcept { return *roots_; }
    /// Mutable root system for `acctx scenario`: event timelines mutate
    /// letter RIBs in place (the rest of the world is untouched).
    [[nodiscard]] dns::root_system& mutable_roots() noexcept { return *roots_; }
    [[nodiscard]] const dns::root_zone& zone() const noexcept { return *zone_; }
    [[nodiscard]] const std::vector<dns::recursive_query_profile>& profiles() const noexcept {
        return profiles_;
    }
    [[nodiscard]] const capture::ditl_dataset& ditl() const noexcept { return ditl_; }
    [[nodiscard]] const std::vector<capture::filtered_letter>& filtered() const noexcept {
        return filtered_;
    }
    /// Columnar view of the filtered captures, built once at construction;
    /// the analysis kernels consume these instead of re-converting rows.
    [[nodiscard]] std::span<const capture::letter_table> filtered_tables() const noexcept {
        return filtered_tables_;
    }
    [[nodiscard]] const cdn::cdn_network& cdn_net() const noexcept { return *cdn_; }
    [[nodiscard]] const std::vector<cdn::server_log_row>& server_logs() const noexcept {
        return server_logs_;
    }
    /// Columnar view of the server-side logs, built once at construction.
    [[nodiscard]] const cdn::server_log_table& server_log_table() const noexcept {
        return server_log_table_;
    }
    [[nodiscard]] const std::vector<cdn::client_measurement_row>& client_measurements()
        const noexcept {
        return client_rows_;
    }
    [[nodiscard]] const atlas::probe_fleet& fleet() const noexcept { return *fleet_; }
    [[nodiscard]] const topo::ip_to_asn& as_mapper() const noexcept { return *ip_to_asn_; }
    [[nodiscard]] const topo::geo_database& geodb() const noexcept { return *geodb_; }

    /// Per-stage construction instrumentation (wall time, item counts),
    /// rendered by `acctx world --timing` and bench_world_build.
    [[nodiscard]] const engine::stage_report& timing() const noexcept { return timing_; }

    /// The construction pool, reusable by analyses (null-safe call sites:
    /// serial configs still return a valid pool that runs inline).
    [[nodiscard]] engine::thread_pool* pool() const noexcept { return pool_.get(); }

private:
    world(world_config config, std::unique_ptr<world_datasets> data);

    world_config config_;
    std::shared_ptr<const void> dataset_retain_;  // backing bytes for borrowed columns
    std::unique_ptr<engine::thread_pool> pool_;
    engine::stage_report timing_;
    topo::region_table regions_;
    topo::as_graph graph_{regions_};
    topo::address_space space_;
    std::unique_ptr<pop::user_base> users_;
    std::unique_ptr<dns::root_system> roots_;
    std::unique_ptr<cdn::cdn_network> cdn_;
    std::unique_ptr<pop::cdn_user_counts> cdn_counts_;
    std::unique_ptr<pop::apnic_user_counts> apnic_counts_;
    std::unique_ptr<dns::root_zone> zone_;
    std::vector<dns::recursive_query_profile> profiles_;
    capture::ditl_dataset ditl_;
    std::vector<capture::filtered_letter> filtered_;
    std::vector<capture::letter_table> filtered_tables_;
    std::vector<cdn::server_log_row> server_logs_;
    cdn::server_log_table server_log_table_;
    std::vector<cdn::client_measurement_row> client_rows_;
    std::unique_ptr<atlas::probe_fleet> fleet_;
    std::unique_ptr<topo::ip_to_asn> ip_to_asn_;
    std::unique_ptr<topo::geo_database> geodb_;
};

} // namespace ac::core
