#include "src/core/world.h"

namespace ac::core {

world_config world_config::small() {
    world_config config;
    config.regions = topo::region_plan{40, 12, 40, 16, 30, 10, 2};
    config.graph.tier1_count = 6;
    config.graph.transits_per_continent = 5;
    config.graph.eyeball_count = 160;
    config.graph.enterprise_count = 30;
    config.graph.public_dns_count = 2;
    config.ditl.junk_source_count = 300;
    config.atlas.probe_count = 600;
    config.root_zone_tlds = 200;
    return config;
}

world_config world_config::medium() { return world_config{}; }

world_config world_config::large() {
    world_config config;
    // ~4x the AS graph and user population, 3x the CDN footprint. The knobs
    // are sized so one large cell finishes in CI minutes, not hours; the
    // structural claims (hundreds of front-ends, thousands of ASes, O(10^8)
    // users, millions of capture rows) all hold at this size.
    config.graph.eyeball_count = 4800;
    config.graph.enterprise_count = 800;
    config.graph.public_dns_count = 8;
    config.users.users_per_weight = 1.8e8;
    config.ditl.junk_source_count = 32000;
    config.cdn.ring_sizes = {84, 141, 222, 285, 330};
    config.atlas.probe_count = 14400;
    return config;
}

world_config world_config::for_tier(scale_tier tier) {
    switch (tier) {
        case scale_tier::small: return small();
        case scale_tier::medium: return medium();
        case scale_tier::large: return large();
    }
    return medium();
}

std::string_view to_string(scale_tier tier) noexcept {
    switch (tier) {
        case scale_tier::small: return "small";
        case scale_tier::medium: return "medium";
        case scale_tier::large: return "large";
    }
    return "medium";
}

std::optional<scale_tier> parse_scale_tier(std::string_view name) noexcept {
    if (name == "small") return scale_tier::small;
    if (name == "medium" || name == "full") return scale_tier::medium;
    if (name == "large") return scale_tier::large;
    return std::nullopt;
}

world::world(world_config config) : world(std::move(config), nullptr) {}

world::world(world_config config, world_datasets data)
    : world(std::move(config), std::make_unique<world_datasets>(std::move(data))) {}

world::world(world_config config, std::unique_ptr<world_datasets> data)
    : config_(std::move(config)),
      dataset_retain_(data ? data->retain : nullptr),
      pool_(std::make_unique<engine::thread_pool>(config_.threads)) {
    // Construction runs as a stage graph: stages execute one at a time in
    // dependency order (several stages mutate the shared graph or address
    // space, so the *order* below is part of the bit-identity contract),
    // while the hot stages parallelize internally over the pool. Dependency
    // edges also serialize the mutators: users allocates address space,
    // roots and cdn both attach host networks to the graph.
    //
    // With `data` (snapshot hydration) the substrate stages and the filter
    // run unchanged — they are pure functions of (config, seed) and of the
    // captures — while the generation stages restore their outputs instead
    // of synthesizing them. The restored address space supersedes the live
    // allocation history so the databases stage sees the junk /24s the
    // skipped DITL generator would have added.
    engine::thread_pool* pool = pool_.get();
    engine::stage_graph stages;

    stages.add("regions", {}, [&] {
        regions_ = topo::make_regions(config_.regions, config_.seed);
        return regions_.size();
    });
    stages.add("graph", {"regions"}, [&] {
        graph_ = topo::make_graph(regions_, config_.graph, rand::mix_seed(config_.seed, 1));
        return static_cast<std::size_t>(graph_.as_count());
    });
    stages.add("users", {"graph"}, [&] {
        users_ = std::make_unique<pop::user_base>(graph_, regions_, space_, config_.users,
                                                  rand::mix_seed(config_.seed, 2));
        return users_->locations().size();
    });
    stages.add("roots", {"users"}, [&] {
        const auto specs = config_.year == ditl_year::y2018 ? dns::letters_2018()
                                                            : dns::letters_2020();
        roots_ = std::make_unique<dns::root_system>(specs, graph_, regions_,
                                                    rand::mix_seed(config_.seed, 3), pool);
        return roots_->all_letters().size();
    });
    stages.add("cdn", {"roots"}, [&] {
        auto plan = config_.cdn;
        plan.seed = rand::mix_seed(config_.seed, 4);
        cdn_ = std::make_unique<cdn::cdn_network>(plan, graph_, regions_, pool);
        return cdn_->front_end_regions().size();
    });
    stages.add("user_counts", {"cdn"}, [&] {
        if (data) {
            cdn_counts_ = std::make_unique<pop::cdn_user_counts>(pop::cdn_user_counts::restore(
                data->cdn_count_blocks, data->cdn_count_ips, data->cdn_count_total));
            apnic_counts_ = std::make_unique<pop::apnic_user_counts>(
                pop::apnic_user_counts::restore(data->apnic_counts));
            return data->cdn_count_blocks.size() + data->apnic_counts.size();
        }
        cdn_counts_ = std::make_unique<pop::cdn_user_counts>(
            *users_, pop::cdn_user_counts::options{}, rand::mix_seed(config_.seed, 5));
        apnic_counts_ = std::make_unique<pop::apnic_user_counts>(
            *users_, pop::apnic_user_counts::options{}, rand::mix_seed(config_.seed, 6));
        return users_->locations().size();
    });
    stages.add("zone", {"user_counts"}, [&] {
        zone_ = std::make_unique<dns::root_zone>(config_.root_zone_tlds,
                                                 rand::mix_seed(config_.seed, 7));
        return static_cast<std::size_t>(config_.root_zone_tlds);
    });
    stages.add("profiles", {"zone"}, [&] {
        if (data) return std::size_t{0};  // profiles only feed DITL synthesis
        const auto rtts = dns::compute_letter_rtts(*users_, *roots_, pool);
        profiles_ = dns::build_query_profiles(*users_, rtts, config_.query_model,
                                              rand::mix_seed(config_.seed, 8));
        return profiles_.size();
    });
    stages.add("ditl", {"profiles"}, [&] {
        if (data) {
            ditl_ = std::move(data->ditl);
            // The restored allocation history includes both the live users
            // stage's ranges (identical — same seed) and the junk /24s.
            space_ = topo::address_space::restore(data->space_ranges, data->space_next_key);
        } else {
            ditl_ = capture::generate_ditl(*roots_, *users_, profiles_, space_, config_.ditl,
                                           rand::mix_seed(config_.seed, 9), pool);
        }
        std::size_t records = 0;
        for (const auto& lc : ditl_.letters) records += lc.records.size();
        return records;
    });
    // Tables are the world's one form of the filtered captures and the
    // server logs: each stage converts its rows and drops them. The filter
    // is analysis, not generation, so a hydrated world runs it too; only the
    // server logs are adopted from the restored (possibly borrowed) table.
    stages.add("filter", {"ditl"}, [&] {
        filtered_tables_ = capture::to_tables(capture::filter_all(ditl_));
        return filtered_tables_.size();
    });
    stages.add("server_logs", {"filter"}, [&] {
        server_log_table_ =
            data ? std::move(data->server_log_table)
                 : cdn::to_table(cdn::generate_server_logs(*cdn_, *users_, config_.telemetry,
                                                           rand::mix_seed(config_.seed, 10),
                                                           pool));
        return server_log_table_.rows();
    });
    stages.add("client_rows", {"server_logs"}, [&] {
        if (data) {
            client_rows_ = std::move(data->client_rows);
        } else {
            client_rows_ = cdn::generate_client_measurements(
                *cdn_, *users_, config_.telemetry, rand::mix_seed(config_.seed, 11), pool);
        }
        return client_rows_.size();
    });
    stages.add("tables", {"filter", "server_logs"}, [&] {
        // The tables already exist; this stage only tallies their rows, and
        // stays a named stage so per-stage timing keeps one schema.
        std::size_t rows = server_log_table_.rows();
        for (const auto& t : filtered_tables_) rows += t.rows();
        return rows;
    });
    stages.add("fleet", {"client_rows"}, [&] {
        auto fleet_plan = config_.atlas;
        fleet_plan.seed = rand::mix_seed(config_.seed, 12);
        fleet_ = std::make_unique<atlas::probe_fleet>(graph_, regions_, fleet_plan);
        return fleet_->probes().size();
    });
    stages.add("databases", {"ditl", "fleet"}, [&] {
        // Databases snapshot the final address space (junk /24s included).
        ip_to_asn_ = std::make_unique<topo::ip_to_asn>(space_, config_.ip_to_asn_unmapped,
                                                       rand::mix_seed(config_.seed, 13));
        geodb_ = std::make_unique<topo::geo_database>(space_, regions_, config_.geodb,
                                                      rand::mix_seed(config_.seed, 14));
        return 2;
    });

    timing_ = stages.run(pool->lanes());
}

} // namespace ac::core
