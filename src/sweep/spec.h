// Sweep grid specs: a tiny text DSL describing a grid of worlds to build.
//
// One directive per line, '#' starts a comment:
//
//   tier small                # base config: small | medium | large (default small)
//   seed 42                   # base world seed
//   year 2018                 # DITL year: 2018 | 2020
//   dim peering 0.3 0.72      # CDN<->eyeball peering density (fraction in [0,1])
//   dim rings 3 5             # deployment size: keep the first N CDN rings
//   dim cache real ideal      # resolver cache behaviour (ideal = once per TTL)
//
// The grid is the cross product of every `dim` line; with no dims the spec
// names a single cell. Cells are named from their assignments in dim order
// ("peering-0.3_rings-5_cache-real"), and each carries an FNV-1a digest of
// its fully resolved `world_config`'s snapshot bytes — the resume key the
// driver stores in the manifest (DESIGN §15). Within one dim, no two values
// may resolve to the same config bytes (`3 3`, `0.3 0.30`): they would build
// one world into two cells.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/world.h"

namespace ac::sweep {

/// Parse or validation failure; the message names the offending line.
struct spec_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

struct grid_dimension {
    std::string name;                 // peering | rings | cache
    std::vector<std::string> values;  // literal spec tokens (cell-name safe)
};

struct grid_spec {
    core::scale_tier tier = core::scale_tier::small;
    std::uint64_t seed = 42;
    core::ditl_year year = core::ditl_year::y2018;
    std::vector<grid_dimension> dims;  // in spec order

    [[nodiscard]] std::size_t cell_count() const noexcept;
};

/// One resolved grid cell: a named, hashable world_config.
struct cell {
    std::size_t index = 0;  // row-major over the dims, last dim fastest
    std::string name;       // "peering-0.3_rings-5" ("base" when no dims)
    std::vector<std::pair<std::string, std::string>> assignment;  // dim -> token
    core::world_config config;
    std::uint64_t config_hash = 0;
};

[[nodiscard]] grid_spec parse_grid_spec(std::istream& in);
[[nodiscard]] grid_spec parse_grid_spec_file(const std::string& path);

/// Expands the cross product into resolved cells (validates every value).
[[nodiscard]] std::vector<cell> expand_cells(const grid_spec& spec);

/// FNV-1a 64 over the config's snapshot bytes (`snapshot::encode_config`,
/// the `world/config` section), which hold every knob that can change an
/// output byte. `threads` is not among them: thread count never changes a
/// byte, so it must not force re-runs. Neither is the DITL option that
/// generation ignores (capture/ditl.h).
[[nodiscard]] std::uint64_t hash_config(const core::world_config& config);

} // namespace ac::sweep
