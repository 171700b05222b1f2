// Engine tests: thread pool, parallel_for coverage, stage graph ordering,
// and the bit-identity contract — a world built serially must equal one
// built on a pool, byte for byte, across DITL rows, CDN telemetry rows and
// route tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/core/world.h"
#include "src/engine/stage_graph.h"
#include "src/engine/stream_rng.h"
#include "src/engine/thread_pool.h"

namespace {

using namespace ac;

TEST(ThreadPool, ResolvesThreadSemantics) {
    EXPECT_TRUE(engine::thread_pool{1}.serial());
    EXPECT_EQ(engine::thread_pool{1}.lanes(), 1);
    EXPECT_EQ(engine::thread_pool{3}.workers(), 3);
    EXPECT_EQ(engine::thread_pool{3}.lanes(), 3);
    // 0 = hardware concurrency; single-core machines fall back to serial.
    engine::thread_pool hw{0};
    EXPECT_GE(hw.lanes(), 1);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
    constexpr int task_count = 500;
    for (int threads : {1, 2, 4}) {
        engine::thread_pool pool{threads};
        std::vector<std::atomic<int>> runs(task_count);
        for (auto& r : runs) r.store(0);
        for (int i = 0; i < task_count; ++i) {
            pool.submit([&runs, i] { runs[static_cast<std::size_t>(i)].fetch_add(1); });
        }
        pool.wait();
        for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
    }
}

TEST(ThreadPool, ParallelForCoversAllIndicesUnderOddChunkSizes) {
    constexpr std::size_t count = 1009;  // prime: never divides evenly
    for (int threads : {1, 2, 4}) {
        engine::thread_pool pool{threads};
        for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}, std::size_t{5000}}) {
            std::vector<std::atomic<int>> hits(count);
            for (auto& h : hits) h.store(0);
            pool.parallel_for(count, grain, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    hits[i].fetch_add(1);
                }
            });
            for (std::size_t i = 0; i < count; ++i) {
                ASSERT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
            }
        }
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    engine::thread_pool pool{2};
    EXPECT_THROW(pool.parallel_for(100, 7,
                                   [](std::size_t begin, std::size_t) {
                                       if (begin >= 50) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool stays usable after a failed run.
    std::atomic<int> ok{0};
    pool.parallel_for(10, 1, [&](std::size_t, std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelOver, NullPoolRunsInline) {
    std::vector<int> hits(100, 0);
    engine::parallel_over(nullptr, hits.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
    });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(StreamRng, ItemStreamsAreIndependentOfDrawOrder) {
    // Any thread can reconstruct item i's draws from scratch.
    auto a = engine::item_rng(42, 7, 1000);
    const double first = a.uniform();
    auto b = engine::item_rng(42, 7, 1000);
    EXPECT_EQ(first, b.uniform());
    // Neighboring items and stages decorrelate.
    EXPECT_NE(engine::item_seed(42, 7, 1000), engine::item_seed(42, 7, 1001));
    EXPECT_NE(engine::item_seed(42, 7, 1000), engine::item_seed(42, 8, 1000));
    EXPECT_NE(engine::item_seed(42, 7, 1000), engine::item_seed(43, 7, 1000));
}

TEST(StageGraph, RespectsDependenciesRegardlessOfRegistrationOrder) {
    engine::stage_graph graph;
    std::vector<std::string> order;
    auto record = [&order](std::string name) {
        return [&order, name = std::move(name)] {
            order.push_back(name);
            return std::size_t{1};
        };
    };
    // Registered deliberately out of dependency order.
    graph.add("d", {"b", "c"}, record("d"));
    graph.add("b", {"a"}, record("b"));
    graph.add("c", {"a"}, record("c"));
    graph.add("a", {}, record("a"));

    const auto report = graph.run(2);
    ASSERT_EQ(order.size(), 4u);
    auto pos = [&order](const std::string& name) {
        return std::find(order.begin(), order.end(), name) - order.begin();
    };
    EXPECT_LT(pos("a"), pos("b"));
    EXPECT_LT(pos("a"), pos("c"));
    EXPECT_LT(pos("b"), pos("d"));
    EXPECT_LT(pos("c"), pos("d"));

    ASSERT_EQ(report.stages.size(), 4u);
    EXPECT_EQ(report.threads, 2);
    for (const auto& s : report.stages) {
        EXPECT_GE(s.wall_ms, 0.0);
        EXPECT_EQ(s.items, 1u);
    }
    EXPECT_GE(report.total_wall_ms, 0.0);
}

TEST(StageGraph, RejectsCyclesAndUnknownDeps) {
    {
        engine::stage_graph graph;
        graph.add("a", {"b"}, [] { return std::size_t{0}; });
        graph.add("b", {"a"}, [] { return std::size_t{0}; });
        EXPECT_THROW((void)graph.run(), std::invalid_argument);
    }
    {
        engine::stage_graph graph;
        graph.add("a", {"ghost"}, [] { return std::size_t{0}; });
        EXPECT_THROW((void)graph.run(), std::invalid_argument);
    }
    {
        engine::stage_graph graph;
        graph.add("a", {}, [] { return std::size_t{0}; });
        EXPECT_THROW(graph.add("a", {}, [] { return std::size_t{0}; }),
                     std::invalid_argument);
    }
}

// --- Bit-identity: threads must never change a single output byte. ---

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return rand::splitmix64(h ^ v);
}

std::uint64_t mix_double(std::uint64_t h, double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return mix(h, bits);
}

/// Checksum over every DITL record and TCP row of every letter.
std::uint64_t ditl_checksum(const capture::ditl_dataset& ditl) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto& lc : ditl.letters) {
        h = mix(h, static_cast<std::uint64_t>(lc.letter));
        h = mix_double(h, lc.ipv6_queries_per_day);
        for (const auto& r : lc.records) {
            h = mix(h, r.source_ip.value());
            h = mix(h, r.site);
            h = mix(h, static_cast<std::uint64_t>(r.category));
            h = mix_double(h, r.queries_per_day);
        }
        for (const auto& t : lc.tcp_rtts) {
            h = mix(h, t.source.key());
            h = mix(h, t.site);
            h = mix(h, static_cast<std::uint64_t>(t.sample_count));
            h = mix_double(h, t.median_rtt_ms);
            h = mix_double(h, t.queries_per_day);
        }
    }
    return h;
}

/// Checksum over both CDN telemetry datasets.
std::uint64_t telemetry_checksum(const core::world& w) {
    std::uint64_t h = 0xbf58476d1ce4e5b9ULL;
    const auto& logs = w.server_log_table();
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        h = mix(h, logs.asn[i]);
        h = mix(h, logs.region[i]);
        h = mix(h, static_cast<std::uint64_t>(logs.ring[i]));
        h = mix(h, static_cast<std::uint64_t>(logs.front_end[i]));
        h = mix_double(h, logs.median_rtt_ms[i]);
        h = mix(h, static_cast<std::uint64_t>(logs.sample_count[i]));
        h = mix_double(h, logs.front_end_km[i]);
    }
    for (const auto& r : w.client_measurements()) {
        h = mix(h, r.asn);
        h = mix(h, r.region);
        h = mix(h, static_cast<std::uint64_t>(r.ring));
        h = mix_double(h, r.median_fetch_ms);
        h = mix(h, static_cast<std::uint64_t>(r.sample_count));
    }
    return h;
}

/// Checksum over full route tables: every letter's RIB and the CDN PoP RIB,
/// every site, every AS. This is the direct probe of parallel propagation.
std::uint64_t route_table_checksum(const core::world& w) {
    std::uint64_t h = 0x94d049bb133111ebULL;
    auto add_rib = [&](const route::anycast_rib& rib) {
        for (const auto& a : rib.announcements()) {
            // Iterate the RIB's own AS snapshot: each deployment attaches its
            // dedicated AS to the graph, so later ASes are unknown to earlier
            // RIBs and the world graph is a superset of every snapshot.
            for (const topo::asn_t asn : rib.known_asns()) {
                const auto r = rib.route_toward(asn, a.site);
                if (!r) continue;
                h = mix(h, asn);
                h = mix(h, a.site);
                h = mix(h, static_cast<std::uint64_t>(r->cls));
                h = mix(h, r->path_len);
                h = mix(h, r->next_hop);
                h = mix(h, r->link_index);
            }
        }
    };
    for (char letter : w.roots().all_letters()) {
        add_rib(w.roots().deployment_of(letter).rib());
    }
    add_rib(w.cdn_net().pop_rib());
    return h;
}

core::world_config tiny_config(int threads) {
    auto config = core::world_config::small();
    // Shrink further: the determinism check builds two worlds.
    config.graph.eyeball_count = 60;
    config.graph.enterprise_count = 10;
    config.ditl.junk_source_count = 60;
    config.atlas.probe_count = 100;
    config.root_zone_tlds = 80;
    config.seed = 4242;
    config.threads = threads;
    return config;
}

TEST(Determinism, SerialAndParallelWorldsAreBitIdentical) {
    const core::world serial{tiny_config(1)};
    const core::world parallel{tiny_config(4)};

    // Quick structural equality first, for readable failures.
    ASSERT_EQ(serial.ditl().letters.size(), parallel.ditl().letters.size());
    for (std::size_t i = 0; i < serial.ditl().letters.size(); ++i) {
        ASSERT_EQ(serial.ditl().letters[i].records.size(),
                  parallel.ditl().letters[i].records.size())
            << "letter " << serial.ditl().letters[i].letter;
    }
    ASSERT_EQ(serial.server_log_table().rows(), parallel.server_log_table().rows());
    ASSERT_EQ(serial.client_measurements().size(), parallel.client_measurements().size());

    EXPECT_EQ(ditl_checksum(serial.ditl()), ditl_checksum(parallel.ditl()));
    EXPECT_EQ(telemetry_checksum(serial), telemetry_checksum(parallel));
    EXPECT_EQ(route_table_checksum(serial), route_table_checksum(parallel));

    // Timing instrumentation exists for every stage and knows its width.
    EXPECT_EQ(serial.timing().threads, 1);
    EXPECT_EQ(parallel.timing().threads, 4);
    EXPECT_EQ(serial.timing().stages.size(), parallel.timing().stages.size());
    for (std::size_t i = 0; i < serial.timing().stages.size(); ++i) {
        EXPECT_EQ(serial.timing().stages[i].name, parallel.timing().stages[i].name);
        EXPECT_EQ(serial.timing().stages[i].items, parallel.timing().stages[i].items)
            << serial.timing().stages[i].name;
    }
}

} // namespace
