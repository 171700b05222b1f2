#include "src/sweep/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

#include "src/core/report.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/snapshot/world_io.h"

namespace fs = std::filesystem;

namespace ac::sweep {

namespace {

constexpr const char* manifest_file = "manifest.tsv";
constexpr const char* manifest_header = "ac-sweep-manifest v1";

std::string hash_hex(std::uint64_t h) {
    std::ostringstream out;
    out << std::hex;
    out.width(16);
    out.fill('0');
    out << h;
    return std::move(out).str();
}

struct manifest_entry {
    std::uint64_t hash = 0;
    std::vector<std::string> files;  // relative to the cell directory
};

/// Reads the manifest left by a previous run. Anything malformed degrades to
/// "nothing done" — the worst case is rebuilding cells, never trusting one.
std::map<std::string, manifest_entry> read_manifest(const fs::path& path) {
    std::map<std::string, manifest_entry> done;
    std::ifstream in(path);
    if (!in) return done;
    std::string line;
    if (!std::getline(in, line) || line != manifest_header) return done;
    while (std::getline(in, line)) {
        std::istringstream row(line);
        std::string tag, name, hash_text, file_list;
        if (!(row >> tag >> name >> hash_text >> file_list) || tag != "cell") return {};
        manifest_entry entry;
        try {
            std::size_t used = 0;
            entry.hash = std::stoull(hash_text, &used, 16);
            if (used != hash_text.size()) return {};
        } catch (const std::exception&) {
            return {};
        }
        std::istringstream files(file_list);
        std::string file;
        while (std::getline(files, file, ',')) {
            if (!file.empty()) entry.files.push_back(file);
        }
        if (entry.files.empty()) return {};
        done.emplace(std::move(name), std::move(entry));
    }
    return done;
}

/// Rewrites the manifest atomically (tmp + rename). `entries` is indexed by
/// cell; only completed cells get a line, in cell-index order — completion
/// *order* (which depends on scheduling) never reaches the bytes.
void write_manifest(const fs::path& dir, const std::vector<cell>& cells,
                    const std::vector<manifest_entry>& entries,
                    const std::vector<bool>& is_done) {
    const fs::path tmp = dir / (std::string{manifest_file} + ".tmp");
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) throw std::runtime_error("sweep: cannot write " + tmp.string());
        out << manifest_header << '\n';
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!is_done[i]) continue;
            out << "cell\t" << cells[i].name << '\t' << hash_hex(entries[i].hash) << '\t';
            for (std::size_t fi = 0; fi < entries[i].files.size(); ++fi) {
                if (fi != 0) out << ',';
                out << entries[i].files[fi];
            }
            out << '\n';
        }
        if (!out) throw std::runtime_error("sweep: short write to " + tmp.string());
    }
    fs::rename(tmp, dir / manifest_file);
}

/// Builds one cell into `cell_dir`: snapshot, figure CSVs, metrics JSON.
/// Returns the relative file list (manifest order).
std::vector<std::string> build_cell(const cell& c, const fs::path& cell_dir, int world_threads) {
    core::world_config config = c.config;
    config.threads = world_threads;
    const core::world w(config);
    fs::create_directories(cell_dir);

    std::vector<std::string> files;
    snapshot::save_world(w, (cell_dir / "world.acx").string());
    files.push_back("world.acx");

    for (const auto& fig : core::write_figure_csvs(w, cell_dir.string())) {
        files.push_back(fs::path(fig).filename().string());
    }

    // Per-cell metrics: a *local* registry populated only with values that
    // are pure functions of the config. (The process-global registry holds
    // thread-count-dependent counters — cache hits and the like — which
    // would break grid byte-identity if they leaked into cell files.)
    std::size_t records = 0;
    for (const auto& lc : w.ditl().letters) records += lc.records.size();
    obs::registry reg;
    reg.get_gauge("sweep.cell.index").set(static_cast<double>(c.index));
    reg.get_gauge("sweep.cell.letters").set(static_cast<double>(w.ditl().letters.size()));
    reg.get_gauge("sweep.cell.capture_records").set(static_cast<double>(records));
    reg.get_gauge("sweep.cell.queries_per_day").set(w.ditl().total_queries_per_day());
    reg.get_gauge("sweep.cell.recursives").set(static_cast<double>(w.users().recursives().size()));
    reg.get_gauge("sweep.cell.front_ends")
        .set(static_cast<double>(w.cdn_net().front_end_regions().size()));
    reg.get_gauge("sweep.cell.rings").set(static_cast<double>(w.cdn_net().ring_count()));
    reg.get_gauge("sweep.cell.snapshot_bytes")
        .set(static_cast<double>(fs::file_size(cell_dir / "world.acx")));
    std::ofstream metrics(cell_dir / "metrics.json", std::ios::trunc);
    if (!metrics) throw std::runtime_error("sweep: cannot write metrics.json for " + c.name);
    reg.write_json(metrics);
    files.push_back("metrics.json");
    return files;
}

bool cell_is_done(const manifest_entry& entry, const cell& c, const fs::path& cell_dir) {
    if (entry.hash != c.config_hash) return false;
    return std::all_of(entry.files.begin(), entry.files.end(),
                       [&](const std::string& f) { return fs::exists(cell_dir / f); });
}

} // namespace

sweep_result run_grid(const grid_spec& spec, const std::string& out_dir,
                      const sweep_options& options) {
    const std::vector<cell> cells = expand_cells(spec);
    const fs::path dir{out_dir};
    fs::create_directories(dir);
    const auto previous = read_manifest(dir / manifest_file);

    sweep_result result;
    result.cells.resize(cells.size());
    std::vector<manifest_entry> entries(cells.size());
    std::vector<bool> is_done(cells.size(), false);
    std::vector<std::size_t> to_build;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        result.cells[i].name = cells[i].name;
        result.cells[i].config_hash = cells[i].config_hash;
        const auto it = previous.find(cells[i].name);
        if (it != previous.end() && cell_is_done(it->second, cells[i], dir / cells[i].name)) {
            entries[i] = it->second;
            is_done[i] = true;
            result.cells[i].skipped = true;
            ++result.skipped;
        } else if (options.max_cells == 0 || to_build.size() < options.max_cells) {
            to_build.push_back(i);
        } else {
            ++result.pending;
        }
    }

    engine::thread_pool pool(options.threads);
    // Cells are the parallel unit; a single-cell run gets the full width.
    const int world_threads = to_build.size() == 1 ? options.threads : 1;
    std::mutex mu;  // guards manifest rewrite, result counters, progress
    for (const std::size_t i : to_build) {
        pool.submit([&, i] {
            auto files = build_cell(cells[i], dir / cells[i].name, world_threads);
            const std::lock_guard<std::mutex> lock(mu);
            entries[i] = manifest_entry{cells[i].config_hash, std::move(files)};
            is_done[i] = true;
            result.cells[i].built = true;
            ++result.built;
            // Rewrite after every cell: a killed run resumes from here.
            write_manifest(dir, cells, entries, is_done);
            if (options.progress != nullptr) {
                *options.progress << "cell " << cells[i].name << ": built (config "
                                  << hash_hex(cells[i].config_hash) << ")\n";
            }
        });
    }
    pool.wait();

    if (options.progress != nullptr) {
        *options.progress << "sweep: " << cells.size() << " cells (" << result.built
                          << " built, " << result.skipped << " skipped, " << result.pending
                          << " pending)\n";
    }
    return result;
}

} // namespace ac::sweep
