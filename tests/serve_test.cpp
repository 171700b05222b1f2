// Serving layer tests (DESIGN §13): the query engine's answers must match
// the offline analysis point queries byte for byte, the HTTP front end must
// honour its 400/404/405 contract and drop clients that trickle a request
// or stall a response past its deadline, and the read hot path must survive eight concurrent
// clients (the verify --tsan lane runs this binary under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/point_query.h"
#include "src/core/world.h"
#include "src/load/gauges.h"
#include "src/netbase/strfmt.h"
#include "src/obs/metrics.h"
#include "src/serve/http.h"
#include "src/serve/query_engine.h"
#include "src/snapshot/xxhash64.h"
#include "tests/http_test_client.h"

namespace {

using namespace ac;
using testing_support::test_client;

/// One engine over the small world, shared by every test in this binary
/// (startup freezes 13 letters' select caches; ~tens of ms).
const serve::query_engine& engine() {
    static const serve::query_engine instance = [] {
        auto config = core::world_config::small();
        config.threads = 1;
        return serve::query_engine{std::make_unique<core::world>(std::move(config))};
    }();
    return instance;
}

/// Server bound to an ephemeral port for the duration of a test.
class running_server {
public:
    running_server() : server_(engine(), {.port = 0}) { server_.start(); }
    ~running_server() { server_.stop(); }
    [[nodiscard]] std::uint16_t port() const { return server_.port(); }

private:
    serve::http_server server_;
};

// ---------------------------------------------------------------------------
// Differential: served answers == offline analysis point queries.
// ---------------------------------------------------------------------------

TEST(ServeDifferential, InflationJsonMatchesOfflinePointQuery) {
    const auto& idx = engine().index();
    ASSERT_FALSE(idx.asns().empty());
    std::string body;
    for (const topo::asn_t asn : idx.asns()) {
        engine().inflation_json(std::span<const topo::asn_t>{&asn, 1}, body);
        const auto point = analysis::inflation_for_as(idx, asn);
        ASSERT_TRUE(point.has_value()) << "asn " << asn;
        // The served gi_ms must be the offline value rendered through the
        // shared fixed-precision formatter — byte equality, not EXPECT_NEAR.
        const std::string expected = "\"gi_ms\":" + strfmt::fixed(point->gi_ms, 6);
        EXPECT_NE(body.find(expected), std::string::npos)
            << "asn " << asn << ": " << body << " missing " << expected;
    }
    // An ASN outside the index answers found:false, not an error.
    const topo::asn_t unknown = 4'000'000'000u;
    engine().inflation_json(std::span<const topo::asn_t>{&unknown, 1}, body);
    EXPECT_NE(body.find("\"found\":false"), std::string::npos);
}

TEST(ServeDifferential, AmortizedJsonMatchesOfflinePointQuery) {
    const auto& idx = engine().index();
    ASSERT_FALSE(idx.slash24_keys().empty());
    std::string body;
    for (const std::uint32_t key : idx.slash24_keys()) {
        engine().amortized_json(std::span<const std::uint32_t>{&key, 1}, body);
        const auto point =
            analysis::amortized_for_slash24(idx, net::slash24{net::ipv4_addr{key << 8}});
        ASSERT_TRUE(point.has_value());
        const std::string expected =
            "\"queries_per_day\":" + strfmt::fixed(point->queries_per_day, 6);
        EXPECT_NE(body.find(expected), std::string::npos) << body;
    }
}

TEST(ServeDifferential, GridRowsMatchIndexEntries) {
    std::string csv;
    engine().grid_csv(1, csv);
    const auto& idx = engine().index();
    // One header plus one row per indexed AS and /24.
    const auto rows = static_cast<std::size_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(rows, 1 + idx.asns().size() + idx.slash24_keys().size());
    // Spot-check the first inflation row against the offline point query.
    const auto point = analysis::inflation_for_as(idx, idx.asns().front());
    ASSERT_TRUE(point.has_value());
    const std::string expected_row = "inflation," + std::to_string(idx.asns().front()) +
                                     "," + strfmt::fixed(point->gi_ms, 6);
    EXPECT_NE(csv.find(expected_row), std::string::npos);
}

TEST(ServeDifferential, RouteAnswersComeFromFrozenTable) {
    // Every warmed source must answer wait-free with the RIB's own selection.
    ASSERT_GT(engine().frozen_entries(), 0u);
    const auto& catchments = engine().catchments();
    ASSERT_FALSE(catchments.empty());
    const char letter = catchments.begin()->first;
    const auto& rib = engine().world().roots().deployment_of(letter).rib();
    ASSERT_TRUE(rib.select_cache_stats().frozen);

    const auto& recs = engine().world().users().recursives();
    ASSERT_FALSE(recs.empty());
    std::string body;
    ASSERT_TRUE(engine().route_json(letter, recs.front().asn, recs.front().region, body));
    EXPECT_NE(body.find("\"frozen\":true"), std::string::npos) << body;
    const auto expected = rib.select(recs.front().asn, recs.front().region);
    ASSERT_TRUE(expected.has_value());
    EXPECT_NE(body.find("\"site\":" + std::to_string(expected->site)), std::string::npos)
        << body;

    // Unknown letter is a structural error (HTTP 400), not a JSON answer.
    EXPECT_FALSE(engine().route_json('z', recs.front().asn, recs.front().region, body));
}

TEST(ServeDifferential, RouteJsonIsByteStable) {
    // Every letter's /route answer for every recursive's own (warmed) region
    // and for the next region over (mostly cold), plus an unknown AS.
    const auto& recs = engine().world().users().recursives();
    const auto region_count = static_cast<topo::region_id>(engine().world().regions().size());
    std::string all;
    std::string body;
    for (const auto& [letter, catchment] : engine().catchments()) {
        for (const auto& rec : recs) {
            for (const topo::region_id region : {rec.region, (rec.region + 1) % region_count}) {
                ASSERT_TRUE(engine().route_json(letter, rec.asn, region, body));
                all += body;
                all += '\n';
            }
        }
        ASSERT_TRUE(engine().route_json(letter, 4'000'000'000u, 0, body));
        all += body;
        all += '\n';
    }
    EXPECT_EQ(snapshot::xxhash64(all.data(), all.size()), 0x4d7699b33f144fbdull)
        << "route json digest changed: 0x" << std::hex
        << snapshot::xxhash64(all.data(), all.size());
}

// ---------------------------------------------------------------------------
// HTTP contract.
// ---------------------------------------------------------------------------

TEST(ServeHttp, ServedBytesEqualEngineWriters) {
    running_server server;
    test_client client{server.port()};
    ASSERT_TRUE(client.connected());

    // Batched inflation over the first three indexed ASes: the HTTP body is
    // the engine writer's output, byte for byte.
    const auto asns = engine().index().asns();
    ASSERT_GE(asns.size(), 3u);
    std::string expected;
    engine().inflation_json(asns.subspan(0, 3), expected);
    std::string target = "/inflation?asn=" + std::to_string(asns[0]) + "," +
                         std::to_string(asns[1]) + "," + std::to_string(asns[2]);
    auto response = client.get(target);
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), expected);

    // /grid == grid_csv.
    engine().grid_csv(1, expected);
    response = client.get("/grid");
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), expected);

    // /healthz and /metricsz answer.
    EXPECT_EQ(test_client::body_of(client.get("/healthz")), "ok\n");
    response = client.get("/metricsz");
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_NE(test_client::body_of(response).find("ac-metrics-v1"), std::string::npos);
}

TEST(ServeHttp, MalformedRequestsGet400) {
    running_server server;
    const std::vector<std::string> bad_targets{
        "/inflation?asn=not-a-number",   // non-numeric key
        "/inflation?asn=",               // empty value
        "/inflation?asn=1,,2",           // empty list element
        "/inflation?asn=1,2,",           // trailing comma
        "/inflation?frobnicate=1",       // unknown parameter
        "/inflation",                    // missing required parameter
        "/amortized?slash24=999.0.0.0/24",  // unparsable address
        "/catchment?letter=AB",          // letter must be one character
        "/route?letter=A&asn=1",         // missing region
        "/route?letter=%&asn=1&region=0",  // junk letter
        "/grid?stride=0",                // stride must be positive
        "/grid?stride=x",
    };
    for (const auto& target : bad_targets) {
        test_client client{server.port()};
        ASSERT_TRUE(client.connected());
        const auto response = client.get(target);
        EXPECT_EQ(test_client::status_of(response), 400) << target << "\n" << response;
    }

    test_client client{server.port()};
    ASSERT_TRUE(client.connected());
    // A parseable route query for an AS the RIB never saw is answered
    // (found:false), not thrown across the connection thread.
    const char letter = engine().catchments().begin()->first;
    const auto response = client.get("/route?letter=" + std::string(1, letter) +
                                     "&asn=4000000000&region=0");
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_NE(test_client::body_of(response).find("\"found\":false"), std::string::npos);
    EXPECT_EQ(test_client::status_of(client.get("/nope")), 404);
    EXPECT_EQ(test_client::status_of(
                  client.round_trip("POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")),
              405);
    EXPECT_EQ(test_client::status_of(
                  client.round_trip("GET /healthz HTTP/0.9\r\nHost: t\r\n\r\n")),
              400);
}

TEST(ServeHttp, KeepAliveServesManyRequestsPerConnection) {
    running_server server;
    test_client client{server.port()};
    ASSERT_TRUE(client.connected());
    std::string expected;
    const auto asns = engine().index().asns();
    engine().inflation_json(asns.subspan(0, 1), expected);
    const std::string target = "/inflation?asn=" + std::to_string(asns[0]);
    for (int i = 0; i < 50; ++i) {
        const auto response = client.get(target);
        ASSERT_EQ(test_client::status_of(response), 200) << "request " << i;
        ASSERT_EQ(test_client::body_of(response), expected) << "request " << i;
    }

    // Pipelined requests are each answered, in order; the second asks the
    // server to close, so the stream ends right after its response.
    client.set_recv_timeout(std::chrono::milliseconds{5000});
    ASSERT_TRUE(client.send_raw("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n" +
                                "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
    const std::string both = client.read_to_end();
    const auto second = both.find("HTTP/1.1 ", 1);
    ASSERT_NE(second, std::string::npos) << both;
    EXPECT_EQ(test_client::status_of(both), 200);
    EXPECT_EQ(test_client::body_of(both.substr(0, second)), expected);
    EXPECT_EQ(test_client::status_of(both.substr(second)), 200);
    EXPECT_EQ(test_client::body_of(both.substr(second)), "ok\n");
}

TEST(ServeHttp, TricklingClientIsDroppedWhileOthersAreServed) {
    serve::http_options options;
    options.header_deadline = std::chrono::milliseconds{300};
    serve::http_server server{engine(), options};
    server.start();

    // One byte every 50 ms: each recv alone is well inside the deadline, and
    // the whole header block would take ~5 s, so only the whole-request
    // deadline can drop this client.
    const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: " +
                                std::string(60, 'x') + "\r\n\r\n";
    const auto started = std::chrono::steady_clock::now();
    test_client trickler{server.port()};
    ASSERT_TRUE(trickler.connected());
    std::atomic<bool> trickle_done{false};
    std::size_t sent = 0;
    std::chrono::milliseconds dropped_after{0};
    std::thread trickle([&] {
        for (; sent < request.size(); ++sent) {
            if (!trickler.send_byte(request[sent])) break;
            if (trickler.closed_within(std::chrono::milliseconds{50})) break;
        }
        dropped_after = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started);
        trickle_done.store(true);
    });

    // Meanwhile a normal client on a second connection is served.
    test_client normal{server.port()};
    EXPECT_TRUE(normal.connected());
    const auto response = normal.get("/healthz");
    const bool trickler_still_connected = !trickle_done.load();
    trickle.join();
    server.stop();

    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), "ok\n");
    EXPECT_TRUE(trickler_still_connected);
    EXPECT_LT(sent, request.size()) << "the trickler was never dropped";
    EXPECT_GE(dropped_after.count(), 300);
    EXPECT_LT(dropped_after.count(), 3000);
}

TEST(ServeHttp, NonReadingClientIsDroppedWhileOthersAreServed) {
    // One connection slot, so a client pinning its connection thread would
    // also starve every other client.
    serve::http_options options;
    options.header_deadline = std::chrono::milliseconds{300};
    options.max_connections = 1;
    serve::http_server server{engine(), options};
    server.start();

    // The staller shrinks its receive buffer before connecting, then asks
    // for more /grid responses than both loopback socket buffers can hold
    // (16 MiB against at most 4 MiB of send buffer) and reads nothing: the
    // server blocks in send until the write deadline drops the connection.
    std::string grid;
    engine().grid_csv(1, grid);
    ASSERT_FALSE(grid.empty());
    const std::size_t asked = (std::size_t{16} << 20) / grid.size() + 1;
    test_client staller{server.port(), /*rcvbuf=*/4096};
    ASSERT_TRUE(staller.connected());

    // Connected second, the normal client queues behind the staller's slot
    // and is served only once the staller is dropped.
    test_client normal{server.port()};
    ASSERT_TRUE(normal.connected());
    normal.set_recv_timeout(std::chrono::milliseconds{5000});

    // Requests go out a few ms apart, so each is answered on its own, and
    // stop once the server has dropped the connection.
    std::thread stall([&] {
        for (std::size_t i = 0; i < asked; ++i) {
            if (!staller.send_raw("GET /grid HTTP/1.1\r\nHost: t\r\n\r\n")) break;
            std::this_thread::sleep_for(std::chrono::milliseconds{2});
        }
    });
    const auto started = std::chrono::steady_clock::now();
    const auto response = normal.get("/healthz");
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    stall.join();
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), "ok\n");
    EXPECT_GE(waited.count(), 300);
    EXPECT_LT(waited.count(), 3000);

    // Draining the staller now ends short of the responses it asked for:
    // the server closed it mid-write.
    staller.set_recv_timeout(std::chrono::milliseconds{5000});
    const std::string drained = staller.read_to_end();
    EXPECT_TRUE(staller.closed_within(std::chrono::milliseconds{0}))
        << "the staller was never closed";
    EXPECT_LT(drained.size(), asked * grid.size());
    server.stop();
}

// ---------------------------------------------------------------------------
// Concurrency: eight clients hammer the lock-free read path (TSan lane).
// ---------------------------------------------------------------------------

TEST(ServeStress, EightConcurrentClientsGetConsistentAnswers) {
    running_server server;
    const auto asns = engine().index().asns();
    const auto& recs = engine().world().users().recursives();
    const char letter = engine().catchments().begin()->first;
    const auto& rib = engine().world().roots().deployment_of(letter).rib();
    ASSERT_GE(asns.size(), 8u);
    ASSERT_FALSE(recs.empty());

    // One cold (AS, region) pair per client: a routed source outside the
    // warmed population, so the sealed memo computes it on every request
    // without storing it. Each must answer "frozen":false with rib.select's
    // selection.
    const auto region_count = static_cast<topo::region_id>(engine().world().regions().size());
    std::vector<std::string> cold_targets;
    std::vector<std::string> expected_cold;
    for (std::size_t t = 0; t < 8; ++t) {
        const auto& rec = recs[(t * 7) % recs.size()];
        for (topo::region_id step = 1; step < region_count; ++step) {
            const topo::region_id region = (rec.region + step) % region_count;
            if (rib.select_frozen(rec.asn, region) != nullptr) continue;
            const auto selected = rib.select(rec.asn, region);
            if (!selected) continue;
            std::string body;
            ASSERT_TRUE(engine().route_json(letter, rec.asn, region, body));
            EXPECT_NE(body.find("\"frozen\":false"), std::string::npos) << body;
            EXPECT_NE(body.find("\"site\":" + std::to_string(selected->site) + ","),
                      std::string::npos)
                << body;
            const auto hops = rib.as_path(rec.asn, selected->site).size();
            EXPECT_NE(body.find("\"hops\":" + std::to_string(hops) + "}"), std::string::npos)
                << body;
            cold_targets.push_back("/route?letter=" + std::string(1, letter) +
                                   "&asn=" + std::to_string(rec.asn) +
                                   "&region=" + std::to_string(region));
            expected_cold.push_back(std::move(body));
            break;
        }
    }
    ASSERT_EQ(cold_targets.size(), 8u);

    std::vector<std::thread> clients;
    std::vector<int> failures(8, 0);
    for (int t = 0; t < 8; ++t) {
        clients.emplace_back([&, t] {
            test_client client{server.port()};
            if (!client.connected()) {
                failures[t] = 1;
                return;
            }
            // Per-thread expected bytes, computed once up front so the hot
            // loop only compares.
            const topo::asn_t asn = asns[static_cast<std::size_t>(t)];
            const auto& rec = recs[static_cast<std::size_t>(t) % recs.size()];
            std::string expected_inflation;
            engine().inflation_json(std::span<const topo::asn_t>{&asn, 1},
                                    expected_inflation);
            std::string expected_route;
            if (!engine().route_json(letter, rec.asn, rec.region, expected_route)) {
                failures[t] = 2;
                return;
            }
            const std::string inflation_target = "/inflation?asn=" + std::to_string(asn);
            const std::string route_target = "/route?letter=" + std::string(1, letter) +
                                             "&asn=" + std::to_string(rec.asn) +
                                             "&region=" + std::to_string(rec.region);
            // Every fourth /route request is the cold pair, as in the
            // benchmark's serve request list.
            const auto ti = static_cast<std::size_t>(t);
            for (int round = 0; round < 200; ++round) {
                auto response = client.get(inflation_target);
                if (test_client::status_of(response) != 200 ||
                    test_client::body_of(response) != expected_inflation) {
                    failures[t] = 3;
                    return;
                }
                const bool cold = round % 4 == 3;
                response = client.get(cold ? cold_targets[ti] : route_target);
                if (test_client::status_of(response) != 200 ||
                    test_client::body_of(response) !=
                        (cold ? expected_cold[ti] : expected_route)) {
                    failures[t] = cold ? 5 : 4;
                    return;
                }
            }
        });
    }
    for (auto& c : clients) c.join();
    for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "client " << t;
}

TEST(ServeGauges, EngineStartupPublishesLoadGauges) {
    // Building the engine publishes the shared load gauge names
    // (src/load/gauges.h): per-letter catchment users always, per-front-end
    // connection totals whenever the world carries server-side telemetry.
    // /metricsz therefore reports the same load profile an `acctx load` run
    // would write.
    const auto& e = engine();
    auto& reg = obs::registry::global();
    for (const auto& [letter, catchment] : e.catchments()) {
        const std::string name = load::letter_users_gauge_name({&letter, 1});
        EXPECT_EQ(reg.get_gauge(name).value(), catchment.total_users) << name;
    }
    if (e.world().server_log_table().rows() > 0) {
        std::int64_t samples = 0;
        double published = 0.0;
        const auto& logs = e.world().server_log_table();
        for (std::size_t i = 0; i < logs.rows(); ++i) {
            samples += logs.sample_count[i];
        }
        for (int f = 0; f < e.world().cdn_net().ring_size(
                                e.world().cdn_net().ring_count() - 1);
             ++f) {
            published += reg.get_gauge(load::front_end_conn_gauge_name(f)).value();
        }
        EXPECT_EQ(published, static_cast<double>(samples));
    }
}

} // namespace
