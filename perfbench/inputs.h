// Seeded inputs: everything a workload feeds the library is generated here
// from the benchmark's --seed, so the same seed always gives the same world
// seeds, timelines and request list, and the library only ever receives the
// generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/dns/root_letters.h"
#include "src/serve/query_engine.h"

namespace perfbench {

/// splitmix64: a deterministic stream of 64-bit values from one seed.
class seeded_rng {
public:
    seeded_rng(std::uint64_t seed, std::string_view stream);
    std::uint64_t next();
    /// Uniform integer in [lo, hi] (inclusive; modulo bias is irrelevant here).
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

private:
    std::uint64_t state_;
};

/// `count` world seeds for one workload, distinct from other workloads'.
std::vector<std::uint64_t> world_seeds(std::uint64_t seed, std::string_view workload, int count);

/// A 6-step failover timeline over the root letters that ends where it
/// started: drain a seeded site on two seeded letters, withdraw `withdrawn`,
/// then undo all three in turn, so every replay begins from the baseline
/// RIBs. The withdrawn letter dominates the replay's cost, which is why the
/// caller picks it rather than the seed.
std::string failover_timeline(std::uint64_t seed, const ac::dns::root_system& roots,
                              char withdrawn);

/// A 24-bucket demand timeline: one diurnal cycle, a flash crowd in one
/// region and a persistent hot spot in another.
std::string demand_timeline(std::uint64_t seed, std::size_t region_count);

/// One serve request: the GET target plus the structured query it encodes,
/// so the expected answer comes from the engine without parsing the target.
struct serve_request {
    enum class kind { inflation, amortized, route, catchment };
    kind type = kind::inflation;
    std::string target;
    std::vector<std::uint32_t> keys;  // ASNs, /24 keys or site ids
    char letter = 'A';
    std::uint32_t asn = 0;
    std::uint32_t region = 0;

    /// Point lookups the request asks for (a route is one).
    [[nodiscard]] std::size_t key_count() const { return type == kind::route ? 1 : keys.size(); }
};

/// A fixed-size, seeded request mix over the engine's indexed keys:
/// /inflation and /amortized batches of 32 keys (about 1 key in 16 unknown),
/// /route for warmed and cold (AS, region) pairs, and /catchment.
std::vector<serve_request> serve_requests(std::uint64_t seed, const ac::serve::query_engine& engine,
                                          std::size_t count);

/// The body the engine answers in-process for `request`.
void engine_answer(const ac::serve::query_engine& engine, const serve_request& request,
                   std::string& out);

} // namespace perfbench
