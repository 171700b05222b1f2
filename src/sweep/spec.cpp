#include "src/sweep/spec.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/snapshot/world_io.h"

namespace ac::sweep {

namespace {

const char* const known_dims[] = {"peering", "rings", "cache"};

bool known_dim(const std::string& name) {
    return std::find(std::begin(known_dims), std::end(known_dims), name) !=
           std::end(known_dims);
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw spec_error("grid spec line " + std::to_string(line) + ": " + what);
}

/// Tokens become path components of cell directories; keep them boring.
bool name_safe(const std::string& token) {
    if (token.empty()) return false;
    return std::all_of(token.begin(), token.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '.' || c == '-';
    });
}

double parse_fraction(const std::string& token, int line) {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || v < 0.0 || v > 1.0) {
        fail(line, "peering value '" + token + "' is not a fraction in [0,1]");
    }
    return v;
}

/// Applies one dim assignment to a resolved config. `line` <= 0 means the
/// values were already validated at parse time (expand path).
void apply_dim(core::world_config& config, const std::string& dim, const std::string& token,
               int line) {
    if (dim == "peering") {
        config.cdn.eyeball_peering_fraction = parse_fraction(token, line);
    } else if (dim == "rings") {
        char* end = nullptr;
        const long n = std::strtol(token.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || n < 1 ||
            n > static_cast<long>(config.cdn.ring_sizes.size())) {
            fail(line, "rings value '" + token + "' must be 1.." +
                           std::to_string(config.cdn.ring_sizes.size()));
        }
        config.cdn.ring_sizes.resize(static_cast<std::size_t>(n));
    } else if (dim == "cache") {
        if (token == "ideal") {
            config.query_model = dns::ideal_cache(config.query_model);
        } else if (token != "real") {
            fail(line, "cache value '" + token + "' must be real or ideal");
        }
    } else {
        fail(line, "unknown dim '" + dim + "'");
    }
}

} // namespace

std::size_t grid_spec::cell_count() const noexcept {
    std::size_t n = 1;
    for (const auto& d : dims) n *= d.values.size();
    return n;
}

grid_spec parse_grid_spec(std::istream& in) {
    grid_spec spec;
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
        ++line;
        if (const auto hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
        std::istringstream words(raw);
        std::string directive;
        if (!(words >> directive)) continue;  // blank / comment-only line
        if (directive == "tier") {
            std::string name;
            if (!(words >> name)) fail(line, "tier needs a value");
            const auto tier = core::parse_scale_tier(name);
            if (!tier) fail(line, "unknown tier '" + name + "'");
            spec.tier = *tier;
        } else if (directive == "seed") {
            if (!(words >> spec.seed)) fail(line, "seed needs an integer");
        } else if (directive == "year") {
            int y = 0;
            if (!(words >> y) || (y != 2018 && y != 2020)) {
                fail(line, "year must be 2018 or 2020");
            }
            spec.year = y == 2018 ? core::ditl_year::y2018 : core::ditl_year::y2020;
        } else if (directive == "dim") {
            grid_dimension dim;
            if (!(words >> dim.name)) fail(line, "dim needs a name");
            if (!known_dim(dim.name)) fail(line, "unknown dim '" + dim.name + "'");
            for (const auto& existing : spec.dims) {
                if (existing.name == dim.name) fail(line, "duplicate dim '" + dim.name + "'");
            }
            // Each value's probe config, as the bytes cells are keyed on:
            // two values with equal bytes (`3 3`, `0.3 0.30`) would build
            // one world into two cells.
            std::vector<std::vector<std::byte>> probes;
            std::string token;
            while (words >> token) {
                if (!name_safe(token)) fail(line, "value '" + token + "' is not name-safe");
                // Validate eagerly against the tier's base config so a bad
                // spec fails before any cell builds.
                auto probe = core::world_config::for_tier(spec.tier);
                apply_dim(probe, dim.name, token, line);
                auto bytes = snapshot::encode_config(probe);
                const auto same = std::find(probes.begin(), probes.end(), bytes);
                if (same != probes.end()) {
                    fail(line, "value '" + token + "' in dim '" + dim.name +
                                   "' gives the same config as '" +
                                   dim.values[static_cast<std::size_t>(same - probes.begin())] +
                                   "'");
                }
                probes.push_back(std::move(bytes));
                dim.values.push_back(token);
            }
            if (dim.values.empty()) fail(line, "dim '" + dim.name + "' needs values");
            spec.dims.push_back(std::move(dim));
        } else {
            fail(line, "unknown directive '" + directive + "'");
        }
        std::string trailing;
        if (words >> trailing) fail(line, "trailing token '" + trailing + "'");
    }
    return spec;
}

grid_spec parse_grid_spec_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw spec_error("grid spec: cannot open " + path);
    return parse_grid_spec(in);
}

std::vector<cell> expand_cells(const grid_spec& spec) {
    const std::size_t total = spec.cell_count();
    std::vector<cell> cells;
    cells.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        cell c;
        c.index = index;
        c.config = core::world_config::for_tier(spec.tier);
        c.config.seed = spec.seed;
        c.config.year = spec.year;
        // Row-major decode, last dim fastest — matches nested-loop order.
        std::size_t remainder = index;
        std::size_t radix = total;
        for (const auto& dim : spec.dims) {
            radix /= dim.values.size();
            const std::string& token = dim.values[remainder / radix];
            remainder %= radix;
            c.assignment.emplace_back(dim.name, token);
            apply_dim(c.config, dim.name, token, 0);
            if (!c.name.empty()) c.name += '_';
            c.name += dim.name;
            c.name += '-';
            c.name += token;
        }
        if (c.name.empty()) c.name = "base";
        c.config_hash = hash_config(c.config);
        cells.push_back(std::move(c));
    }
    return cells;
}

std::uint64_t hash_config(const core::world_config& config) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::byte b : snapshot::encode_config(config)) {
        h ^= std::to_integer<std::uint8_t>(b);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace ac::sweep
