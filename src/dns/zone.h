// DNS names, records, and the root zone.
//
// The root zone holds NS/glue for ~1,000 TLDs, nearly all with two-day TTLs
// (§4.1) — the fact that makes resolver caching so effective. The resolver
// simulation (Fig. 12/13, Table 5, §4.3 cache-miss rates) resolves names
// against this zone; the query-amortization "Ideal" line counts its records.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ac::dns {

enum class rr_type : std::uint8_t { a, aaaa, ns, ptr, soa };

[[nodiscard]] std::string_view to_string(rr_type type) noexcept;

struct resource_record {
    std::string name;   // fully qualified, lower-case, no trailing dot
    rr_type type = rr_type::a;
    std::uint32_t ttl_s = 0;
    std::string data;   // address text or target hostname
};

/// Lower-cases a name and strips one trailing dot.
[[nodiscard]] std::string normalize_name(std::string_view name);

/// The final label of a name ("www.example.com" -> "com"); the whole string
/// for single-label names. Empty input yields empty output.
[[nodiscard]] std::string_view tld_of(std::string_view name) noexcept;

/// Number of dot-separated labels.
[[nodiscard]] int label_count(std::string_view name) noexcept;

/// True for names Chromium's captive-portal detector would generate: a
/// single random-looking label (the probes that dominate root NXD traffic
/// [4, 34]).
[[nodiscard]] bool looks_like_chromium_probe(std::string_view name) noexcept;

/// Default TTL of TLD NS records: two days (§4.1).
inline constexpr std::uint32_t tld_ttl_s = 172800;

/// A referral (or negative answer) from the root.
struct root_response {
    bool nxdomain = false;
    std::string tld;
    std::vector<resource_record> authority;   // NS records for the TLD
    std::vector<resource_record> additional;  // glue A/AAAA for TLD servers
    std::uint32_t ttl_s = tld_ttl_s;
};

/// The root zone: a synthetic TLD catalogue with Zipf popularity.
class root_zone {
public:
    root_zone(int tld_count, std::uint64_t seed);

    [[nodiscard]] int tld_count() const noexcept { return static_cast<int>(tlds_.size()); }
    [[nodiscard]] const std::vector<std::string>& tlds() const noexcept { return tlds_; }
    [[nodiscard]] bool tld_exists(std::string_view tld) const;

    /// Zipf popularity weight of the i-th TLD (descending; normalized).
    [[nodiscard]] double popularity(int index) const { return popularity_.at(static_cast<std::size_t>(index)); }

    /// Answers a query: a referral for names under an existing TLD,
    /// NXDOMAIN otherwise.
    [[nodiscard]] root_response resolve(std::string_view qname) const;

private:
    std::vector<std::string> tlds_;      // sorted for lookup? kept in rank order
    std::vector<double> popularity_;     // aligned, sums to 1
    std::vector<std::size_t> by_name_;   // indices sorted by name
};

} // namespace ac::dns
