// Sweep driver: builds every cell of a grid spec across the engine thread
// pool, writing one snapshot + one ac-metrics-v1 JSON + one figure-CSV
// bundle per cell under `out_dir/<cell-name>/`, and a manifest that makes
// the whole grid resumable — a cell already on disk whose manifest hash
// matches its resolved config (and whose files all exist) is skipped.
//
// Output bytes are a pure function of the spec: cell worlds are built
// through the deterministic engine, per-cell metrics carry only
// deterministic values, and the manifest lists completed cells in cell-index
// order with no timestamps — so a grid is byte-identical at any thread
// count and across kill/resume boundaries (DESIGN §15).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sweep/spec.h"

namespace ac::sweep {

struct sweep_options {
    /// Cell-level parallelism: 0 = hardware concurrency, 1 = serial. Cells
    /// are the parallel unit: each cell's world builds with one thread
    /// unless the run has exactly one cell to build, which gets the full
    /// width. (Thread counts never change output bytes either way.)
    int threads = 1;
    /// Stop after building this many not-yet-done cells (0 = no limit). The
    /// manifest stays valid, so a later run resumes where this one stopped.
    std::size_t max_cells = 0;
    /// Per-cell progress lines; nullptr = quiet.
    std::ostream* progress = nullptr;
};

struct cell_result {
    std::string name;
    std::uint64_t config_hash = 0;
    bool skipped = false;  // already on disk with a matching hash
    bool built = false;    // built by this run
};

struct sweep_result {
    std::vector<cell_result> cells;  // in cell-index order
    std::size_t built = 0;
    std::size_t skipped = 0;
    std::size_t pending = 0;  // cut short by max_cells; resume later
};

/// Runs the grid. Throws spec_error / std::runtime_error on unusable specs
/// or I/O failure; a failed cell leaves the manifest valid for resume.
sweep_result run_grid(const grid_spec& spec, const std::string& out_dir,
                      const sweep_options& options = {});

} // namespace ac::sweep
