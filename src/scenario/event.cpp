#include "src/scenario/event.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <sstream>

namespace ac::scenario {

namespace {

/// Parses an integer field that must lie in [min, max], the field's
/// documented bound. A sign or trailing garbage is malformed; a value past
/// the bound (however many digits) is rejected rather than narrowed, so no
/// out-of-range input can wrap into an accepted one.
unsigned long long parse_number(const std::string& token, const std::string& field,
                                int line_no, unsigned long long min, unsigned long long max) {
    const char* const end = token.data() + token.size();
    unsigned long long value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    const bool overflow = ec == std::errc::result_out_of_range;
    if ((ec != std::errc{} && !overflow) || ptr != end) {
        throw timeline_error("timeline line " + std::to_string(line_no) + ": malformed " +
                             field + " '" + token + "'");
    }
    if (overflow || value < min || value > max) {
        throw timeline_error("timeline line " + std::to_string(line_no) + ": " + field +
                             " must be " + std::to_string(min) + ".." + std::to_string(max) +
                             ", got '" + token + "'");
    }
    return value;
}

struct event_shape {
    event_type type;
    bool has_target;
    bool has_site;
    bool has_region;
    bool has_amount;
    bool has_pct;
    bool has_window;
    const char* window_name;  // "period" or "duration" (for messages)
};

const event_shape* shape_of(const std::string& name) {
    static const event_shape shapes[] = {
        {event_type::drain, true, true, false, false, false, false, ""},
        {event_type::restore, true, true, false, false, false, false, ""},
        {event_type::withdraw, true, false, false, false, false, false, ""},
        {event_type::announce, true, false, false, false, false, false, ""},
        {event_type::outage, false, false, true, false, false, false, ""},
        {event_type::prepend, true, true, false, true, false, false, ""},
        {event_type::promote, true, true, false, false, false, false, ""},
        {event_type::demote, true, true, false, false, false, false, ""},
        {event_type::demand_level, false, false, false, false, true, false, ""},
        {event_type::demand_diurnal, false, false, false, false, true, true, "period"},
        {event_type::demand_flash, false, false, true, false, true, true, "duration"},
        {event_type::demand_hotspot, false, false, true, false, true, false, ""},
    };
    for (const auto& s : shapes) {
        if (name == event_type_name(s.type)) return &s;
    }
    return nullptr;
}

/// Identity of the state an event mutates, for same-step conflict detection.
/// Events whose keys compare equal touch the same state; if their payloads
/// differ the outcome would depend on input line order. The first component
/// also encodes scope: a prefix-wide event (withdraw/announce, kind 1) on a
/// target conflicts with any site-level event (kind 0) on the same target,
/// which the checker handles separately since the keys differ.
struct conflict_key {
    int kind;            // 0 site, 1 prefix, 2 outage, 3..6 demand kinds
    std::string target;  // deployment name (site/prefix kinds)
    long scope;          // site id or region id, 0 where unused
};

conflict_key key_of(const event& e) {
    switch (e.type) {
        case event_type::drain:
        case event_type::restore:
        case event_type::prepend:
        case event_type::promote:
        case event_type::demote:
            return {0, e.target, static_cast<long>(e.site)};
        case event_type::withdraw:
        case event_type::announce:
            return {1, e.target, 0};
        case event_type::outage:
            return {2, {}, static_cast<long>(e.region)};
        case event_type::demand_level:
            return {3, {}, 0};
        case event_type::demand_diurnal:
            return {4, {}, 0};
        case event_type::demand_flash:
            return {5, {}, static_cast<long>(e.region)};
        case event_type::demand_hotspot:
            return {6, {}, static_cast<long>(e.region)};
    }
    return {-1, {}, 0};
}

bool same_payload(const event& a, const event& b) {
    return a.type == b.type && a.target == b.target && a.site == b.site &&
           a.region == b.region && a.prepend == b.prepend && a.pct == b.pct &&
           a.window == b.window;
}

[[noreturn]] void throw_conflict(const event& a, const event& b) {
    throw timeline_error("timeline: conflicting events at step " + std::to_string(a.step) +
                         ": '" + a.describe() + "' vs '" + b.describe() + "'");
}

/// Rejects same-step events whose combined effect is order-dependent:
/// identical conflict keys with different payloads, and prefix-wide vs
/// site-level events on the same target. Byte-identical duplicates pass.
void check_conflicts(const std::vector<event>& events) {
    for (std::size_t i = 0; i < events.size(); ++i) {
        const conflict_key ka = key_of(events[i]);
        for (std::size_t j = i + 1;
             j < events.size() && events[j].step == events[i].step; ++j) {
            const conflict_key kb = key_of(events[j]);
            const bool same_key = ka.kind == kb.kind && ka.target == kb.target &&
                                  ka.scope == kb.scope;
            if (same_key && !same_payload(events[i], events[j])) {
                throw_conflict(events[i], events[j]);
            }
            // Whole-prefix withdraw/announce next to any site event on the
            // same target: the prefix event overrides or undoes the site one
            // depending on apply order.
            const bool prefix_vs_site =
                ((ka.kind == 1 && kb.kind == 0) || (ka.kind == 0 && kb.kind == 1)) &&
                ka.target == kb.target;
            if (prefix_vs_site) throw_conflict(events[i], events[j]);
        }
    }
}

} // namespace

std::string_view event_type_name(event_type type) noexcept {
    switch (type) {
        case event_type::drain: return "drain";
        case event_type::restore: return "restore";
        case event_type::withdraw: return "withdraw";
        case event_type::announce: return "announce";
        case event_type::outage: return "outage";
        case event_type::prepend: return "prepend";
        case event_type::promote: return "promote";
        case event_type::demote: return "demote";
        case event_type::demand_level: return "demand-level";
        case event_type::demand_diurnal: return "demand-diurnal";
        case event_type::demand_flash: return "demand-flash";
        case event_type::demand_hotspot: return "demand-hotspot";
    }
    return "?";
}

bool is_demand_event(event_type type) noexcept {
    switch (type) {
        case event_type::demand_level:
        case event_type::demand_diurnal:
        case event_type::demand_flash:
        case event_type::demand_hotspot:
            return true;
        default:
            return false;
    }
}

std::string event::describe() const {
    std::string out{event_type_name(type)};
    if (type == event_type::demand_level) {
        out += " " + std::to_string(pct) + "%";
        return out;
    }
    if (type == event_type::demand_diurnal) {
        out += " amplitude " + std::to_string(pct) + "% period " + std::to_string(window);
        return out;
    }
    if (type == event_type::demand_flash) {
        out += " region " + std::to_string(region) + " " + std::to_string(pct) + "% for " +
               std::to_string(window);
        return out;
    }
    if (type == event_type::demand_hotspot) {
        out += " region " + std::to_string(region) + " " + std::to_string(pct) + "%";
        return out;
    }
    if (type == event_type::outage) {
        out += " region " + std::to_string(region);
        return out;
    }
    out += " " + target;
    if (type == event_type::drain || type == event_type::restore ||
        type == event_type::prepend || type == event_type::promote ||
        type == event_type::demote) {
        out += " site " + std::to_string(site);
    }
    if (type == event_type::prepend) out += " x" + std::to_string(prepend);
    return out;
}

int timeline::last_step() const noexcept {
    int last = 0;
    for (const auto& e : events) last = std::max(last, e.step);
    return last;
}

timeline parse_timeline(std::istream& in) {
    timeline tl;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream fields{line};
        std::vector<std::string> tokens;
        for (std::string tok; fields >> tok;) tokens.push_back(std::move(tok));
        if (tokens.empty()) continue;  // blank or comment-only line

        if (tokens.size() < 2) {
            throw timeline_error("timeline line " + std::to_string(line_no) +
                                 ": expected '<step> <type> [args]', got '" + line + "'");
        }
        event e;
        e.step = static_cast<int>(parse_number(tokens[0], "step", line_no, 0, max_step));
        const event_shape* shape = shape_of(tokens[1]);
        if (shape == nullptr) {
            throw timeline_error("timeline line " + std::to_string(line_no) +
                                 ": unknown event type '" + tokens[1] + "'");
        }
        e.type = shape->type;
        const std::size_t expected = 2u + (shape->has_target ? 1u : 0u) +
                                     (shape->has_site ? 1u : 0u) +
                                     (shape->has_region ? 1u : 0u) +
                                     (shape->has_amount ? 1u : 0u) +
                                     (shape->has_pct ? 1u : 0u) +
                                     (shape->has_window ? 1u : 0u);
        if (tokens.size() != expected) {
            throw timeline_error("timeline line " + std::to_string(line_no) + ": '" +
                                 tokens[1] + "' takes " + std::to_string(expected - 2) +
                                 " argument(s), got " + std::to_string(tokens.size() - 2));
        }
        std::size_t next = 2;
        if (shape->has_target) e.target = tokens[next++];
        if (shape->has_site) {
            e.site = static_cast<route::site_id>(parse_number(
                tokens[next++], "site", line_no, 0, std::numeric_limits<route::site_id>::max()));
        }
        if (shape->has_region) {
            e.region = static_cast<topo::region_id>(
                parse_number(tokens[next++], "region", line_no, 0,
                             std::numeric_limits<topo::region_id>::max()));
        }
        if (shape->has_amount) {
            e.prepend = static_cast<int>(
                parse_number(tokens[next++], "prepend count", line_no, 1, max_prepend));
        }
        if (shape->has_pct) {
            const bool diurnal = e.type == event_type::demand_diurnal;
            e.pct = static_cast<int>(parse_number(
                tokens[next++], diurnal ? "diurnal amplitude" : "demand percent", line_no, 0,
                diurnal ? max_diurnal_amplitude_pct : max_demand_pct));
        }
        if (shape->has_window) {
            const int min_window = e.type == event_type::demand_diurnal ? 2 : 1;
            e.window = static_cast<int>(parse_number(tokens[next++], shape->window_name,
                                                     line_no, min_window, max_step));
        }
        tl.events.push_back(std::move(e));
    }
    std::stable_sort(tl.events.begin(), tl.events.end(),
                     [](const event& a, const event& b) { return a.step < b.step; });
    check_conflicts(tl.events);
    return tl;
}

timeline parse_timeline_text(std::string_view text) {
    std::istringstream in{std::string{text}};
    return parse_timeline(in);
}

} // namespace ac::scenario
