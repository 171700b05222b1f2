// The serving query engine (DESIGN §13): a world snapshot opened once,
// immutable query-side indexes built at startup, and a wait-free routing
// read path.
//
// Startup does all the mutable work — open the snapshot (mapped mode),
// hydrate the world, build the analysis::point_query_index, roll up per-site
// catchments, pre-warm every letter's select cache over the query population
// and seal it (route::anycast_rib::freeze_select_cache). After the
// constructor returns the engine is logically const: every answer is a
// binary search or a lock-free lookup in a sealed memo, and the JSON/CSV
// writers append into caller-owned grow-only buffers so the hot path
// performs zero allocations once a connection's arena has warmed up.
//
// Answers are byte-equivalent to the offline `acctx` analyses by
// construction: both sides call the same analysis:: point-query functions
// and format through the same fixed-precision helpers (differential-tested
// in tests/serve_test.cpp and in ci/verify.sh's curl-vs-CSV smoke).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/point_query.h"
#include "src/core/world.h"

namespace ac::serve {

/// Per-site catchment rollup for one letter, computed once at startup from
/// the same `select` results the figures use.
struct site_catchment {
    double users = 0.0;      // users routed to this site
    std::uint32_t locations = 0;  // <AS, region> sources routed here
};

struct letter_catchment {
    std::vector<site_catchment> sites;  // indexed by site id
    double total_users = 0.0;           // users with any selected route
};

class query_engine {
public:
    /// Opens `snapshot_path` (mapped mode), hydrates, indexes, warms and
    /// freezes. `threads` caps the hydration/warmup pool (0 = snapshot
    /// default). Throws snapshot::snapshot_error / std::runtime_error on a
    /// bad archive.
    [[nodiscard]] static query_engine open(const std::string& snapshot_path, int threads = 0);

    /// Builds from an already-constructed world (tests and benches). Takes
    /// ownership by pointer: core::world is non-movable (its RIBs point at
    /// sibling members), so the engine keeps it at a stable heap address.
    explicit query_engine(std::unique_ptr<core::world> w);

    [[nodiscard]] const core::world& world() const noexcept { return *world_; }
    [[nodiscard]] const analysis::point_query_index& index() const noexcept { return index_; }
    /// Total select-cache entries sealed across letters at startup.
    [[nodiscard]] std::size_t frozen_entries() const noexcept { return frozen_entries_; }

    // --- JSON answer writers (hot path) -----------------------------------
    // Each clears `out` and appends one JSON object. Unknown keys produce
    // {"found":false} entries rather than errors so batched queries degrade
    // per-element. Returns false only for structurally invalid requests
    // (unknown letter / site id out of range), which the HTTP layer maps to
    // a 400.

    void inflation_json(std::span<const topo::asn_t> asns, std::string& out) const;
    void amortized_json(std::span<const std::uint32_t> slash24_keys, std::string& out) const;
    [[nodiscard]] bool catchment_json(char letter, std::span<const std::uint32_t> sites,
                                      std::string& out) const;
    [[nodiscard]] bool route_json(char letter, topo::asn_t asn, topo::region_id region,
                                  std::string& out) const;

    /// The differential surface: every indexed AS and /24 (each `stride`-th
    /// entry), one CSV row per point, identical bytes online (`/grid`) and
    /// offline (`acctx serve --grid`).
    void grid_csv(std::size_t stride, std::string& out) const;

    [[nodiscard]] const std::map<char, letter_catchment>& catchments() const noexcept {
        return catchments_;
    }

private:
    void build_indexes();

    std::unique_ptr<core::world> world_;
    analysis::point_query_index index_;
    std::map<char, letter_catchment> catchments_;
    std::size_t frozen_entries_ = 0;
};

} // namespace ac::serve
