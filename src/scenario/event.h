// Scenario events: the operational timeline vocabulary for dynamic anycast.
//
// The paper's analyses run against one static converged world, but anycast
// operation is defined by events — Tangled's evaluation (PAPERS.md) is a
// catalogue of exactly these failover experiments. A `timeline` is an
// ordered list of events, each firing at an integer step:
//
//   drain    <target> <site>       one site stops announcing (maintenance)
//   restore  <target> <site>       a drained site re-announces
//   withdraw <target>              the whole prefix withdraws (all sites)
//   announce <target>              every withdrawn site re-announces
//   outage   <region>              regional outage: every target's sites in
//                                  that region withdraw
//   prepend  <target> <site> <n>   site re-announces with n AS-path prepends
//   promote  <target> <site>       local site becomes global (ring promotion)
//   demote   <target> <site>       global site becomes local
//
// Demand events shape the offered-load series consumed by `src/load` (the
// FastRoute-style load-aware CDN policies); they never touch routing state,
// so `scenario::driver` records them as applied and re-measures as usual:
//
//   demand-level   <pct>                global demand level, percent of
//                                       nominal (state-setting; default 100)
//   demand-diurnal <amplitude> <period> deterministic diurnal cycle: an
//                                       integer triangle wave of +/-
//                                       amplitude percent with the given
//                                       period in steps (trough at the
//                                       firing step, peak half a period in)
//   demand-flash   <region> <pct> <duration>
//                                       flash crowd: the region's demand
//                                       multiplies by pct percent for
//                                       `duration` steps, then auto-reverts
//   demand-hotspot <region> <pct>       persistent regional multiplier
//                                       (state-setting; 100 clears it)
//
// The text format is one event per line: `<step> <type> <args...>`, with
// `#` comments and blank lines ignored. Parsing is strict: unknown event
// types, missing/extra arguments, non-numeric fields, and numbers outside
// their field's bound (`max_step`, `max_prepend` and the demand caps below;
// site and region ids up to their u32 range) are `timeline_error`s, which
// `acctx scenario` and `acctx load` map to usage errors. Two events firing
// at the same step whose effects collide — the same <target, site>, the
// same target's whole prefix next to any site event on that target, the
// same region's flash/hot-spot, or two global demand settings — are also
// rejected: their outcome would depend on input line order, which a
// deterministic replay must not be. Byte-identical duplicates are allowed
// (idempotent).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/routing/bgp.h"
#include "src/topology/region.h"

namespace ac::scenario {

enum class event_type : std::uint8_t {
    drain,
    restore,
    withdraw,
    announce,
    outage,
    prepend,
    promote,
    demote,
    demand_level,
    demand_diurnal,
    demand_flash,
    demand_hotspot,
};

[[nodiscard]] std::string_view event_type_name(event_type type) noexcept;

/// True for the demand-* kinds: events that rescale offered load (src/load)
/// instead of mutating routing state.
[[nodiscard]] bool is_demand_event(event_type type) noexcept;

/// One timeline entry. Which fields are meaningful depends on `type`
/// (see the table above); the parser only fills the ones the type uses.
struct event {
    int step = 0;                  // 0..max_step
    event_type type = event_type::drain;
    std::string target;            // deployment name; empty for `outage`/demand
    route::site_id site = 0;       // drain/restore/prepend/promote/demote
    topo::region_id region = 0;    // outage/demand-flash/demand-hotspot
    int prepend = 0;               // prepend amount, 1..max_prepend
    int pct = 100;                 // demand percent (diurnal: amplitude)
    int window = 0;                // demand-diurnal period (2..max_step) /
                                   // demand-flash duration (1..max_step)

    /// Human-readable rendering, e.g. "drain K site 3".
    [[nodiscard]] std::string describe() const;
};

/// Largest accepted step, and the longest demand period or duration. The
/// step sizes the replay: the scenario driver re-measures every step up to
/// the last one, and `load::demand_series` allocates per-step rows, so one
/// line with a huge step would ask for billions of steps. No committed
/// timeline uses a step above 20.
inline constexpr int max_step = 10000;

/// Largest accepted prepend count: path lengths live in a uint8 and real
/// operators rarely prepend more than a handful of hops.
inline constexpr int max_prepend = 16;

/// Largest accepted demand percentage (100x nominal): keeps every factor in
/// the integer demand chain (src/load/demand.h) far from int64 overflow.
inline constexpr int max_demand_pct = 10000;

/// Diurnal amplitude cap: the triangle wave swings nominal by +/- amplitude
/// percent, so anything above 100 would drive demand negative at the trough.
inline constexpr int max_diurnal_amplitude_pct = 100;

/// A parse or validation failure; the message names the offending line.
class timeline_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct timeline {
    std::vector<event> events;  // sorted by step (stable on input order)

    /// Highest step any event fires at (0 for an empty timeline).
    [[nodiscard]] int last_step() const noexcept;
};

/// Parses the line-based timeline format. Throws `timeline_error` on any
/// unknown event type, malformed entry, or same-step conflict (see above).
[[nodiscard]] timeline parse_timeline(std::istream& in);
[[nodiscard]] timeline parse_timeline_text(std::string_view text);

} // namespace ac::scenario
