// Snapshot contents: what gets stored, and how a world comes back.
//
// A *world snapshot* holds the generated datasets the paper's analyses
// consume — the raw DITL captures, the CDN server-side log table, the
// client-side fetch rows, both population user-count views, the final
// address-space allocation history — and the world config/seed that
// produced them. It stores no derived table: hydration re-runs the §2.1
// filter over the restored captures exactly as a live build does, so the
// filtered letter tables have one producer. Loading one and hydrating a
// world replaces the expensive dataset-generation stages ("generate once,
// archive, re-analyze many times"); the substrate (graph, roots, CDN,
// fleet, databases) is rebuilt deterministically from the stored config, so
// figures computed from a hydrated world are byte-identical to the live
// world that was saved.
//
// A *DITL snapshot* (save_ditl) holds just the capture sections: the DITL
// archive format. `acctx export` writes one; `acctx analyze` reads the
// `ditl/*` sections of any snapshot, DITL-only or full world, through
// read_ditl, and encode_ditl of a read_ditl result reproduces the archive's
// bytes.
//
// The small packed sections (`world/config`, `ditl/<i>/meta`) are each laid
// out once, as a field list that both the writer and the reader instantiate
// (world_io.cpp). `encode_config` exposes
// the `world/config` payload: it holds every knob that can change an output
// byte and nothing else, which is why sweep cells are keyed on its bytes
// (sweep::hash_config, DESIGN §15).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/world.h"
#include "src/snapshot/snapshot.h"

namespace ac::snapshot {

/// Appends the DITL capture sections ("ditl/...") for `dataset` to `w`.
void add_ditl_sections(writer& w, const capture::ditl_dataset& dataset);

/// Full world snapshot as an in-memory image / on disk. The default
/// container version (2) stores columns encoded (dict/rle/delta, see
/// src/table/encoding.h); passing 1 writes the original all-plain format
/// for backward-compat round trips. Both are deterministic
/// and hydrate to byte-identical worlds.
[[nodiscard]] std::vector<std::byte> encode_world(const core::world& w,
                                                  std::uint32_t container_version =
                                                      format_version);
void save_world(const core::world& w, const std::string& path,
                std::uint32_t container_version = format_version);

/// DITL-only snapshot (no config — cannot hydrate a world).
[[nodiscard]] std::vector<std::byte> encode_ditl(const capture::ditl_dataset& dataset);
void save_ditl(const capture::ditl_dataset& dataset, const std::string& path);

/// The `world/config` section payload for `config`. `threads` and the DITL
/// option generation ignores are left out: neither changes an output byte.
[[nodiscard]] std::vector<std::byte> encode_config(const core::world_config& config);

/// True when `b` holds a full world snapshot (config section present).
[[nodiscard]] bool has_world(const bundle& b);

/// The stored world config (seed, scale, year, all plan knobs). Throws
/// errc::section_missing on a DITL-only snapshot, errc::malformed if the
/// section does not decode exactly (short, long, an out-of-range enum, or a
/// declared length past the section's end).
[[nodiscard]] core::world_config read_config(const bundle& b);

/// Materializes the raw DITL dataset (row structs rebuilt from columns). A
/// letter count past the stored letters throws errc::section_missing.
[[nodiscard]] capture::ditl_dataset read_ditl(const bundle& b);

/// The server log table: plain sections come back as *borrowed* columns
/// pointing into the bundle's bytes, encoded sections are decoded into owned
/// columns. The bundle must outlive the result (hydrate keeps it alive via
/// world_datasets::retain; direct callers keep their shared_ptr).
[[nodiscard]] cdn::server_log_table read_server_log_table(const bundle& b);

/// Client measurements, materialized as owned rows.
[[nodiscard]] std::vector<cdn::client_measurement_row> read_client_rows(const bundle& b);

/// Builds a world from a loaded snapshot: substrate from the stored config,
/// datasets from the stored sections (plain table columns borrowed zero-copy
/// from the bundle, encoded ones decoded on load), and the filtered letter
/// tables from the restored captures by the live `filter` stage. `threads_override >= 0`
/// replaces the stored thread count (thread count never changes output
/// bytes). Throws snapshot_error on a DITL-only
/// or otherwise incomplete snapshot.
[[nodiscard]] core::world hydrate_world(std::shared_ptr<const bundle> b,
                                        int threads_override = -1);

/// Heap-allocating variant for holders that need a stable world address
/// (core::world is non-movable — its RIBs point at sibling members).
[[nodiscard]] std::unique_ptr<core::world> hydrate_world_ptr(std::shared_ptr<const bundle> b,
                                                             int threads_override = -1);

} // namespace ac::snapshot
