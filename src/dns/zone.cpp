#include "src/dns/zone.h"

#include <algorithm>
#include <cctype>

#include "src/netbase/rng.h"
#include "src/netbase/strfmt.h"

namespace ac::dns {

std::string_view to_string(rr_type type) noexcept {
    switch (type) {
        case rr_type::a: return "A";
        case rr_type::aaaa: return "AAAA";
        case rr_type::ns: return "NS";
        case rr_type::ptr: return "PTR";
        case rr_type::soa: return "SOA";
    }
    return "?";
}

std::string normalize_name(std::string_view name) {
    if (!name.empty() && name.back() == '.') name.remove_suffix(1);
    std::string out;
    out.reserve(name.size());
    for (char c : name) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    return out;
}

std::string_view tld_of(std::string_view name) noexcept {
    if (!name.empty() && name.back() == '.') name.remove_suffix(1);
    const auto dot = name.rfind('.');
    return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

int label_count(std::string_view name) noexcept {
    if (name.empty()) return 0;
    if (name.back() == '.') name.remove_suffix(1);
    int count = 1;
    for (char c : name) {
        if (c == '.') ++count;
    }
    return count;
}

bool looks_like_chromium_probe(std::string_view name) noexcept {
    // Chromium probes are 7-15 character single random labels.
    if (label_count(name) != 1) return false;
    if (name.size() < 7 || name.size() > 15) return false;
    for (char c : name) {
        if (!std::isalpha(static_cast<unsigned char>(c))) return false;
    }
    return true;
}

root_zone::root_zone(int tld_count, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0x700a0071ull)};
    tlds_.reserve(static_cast<std::size_t>(tld_count));
    // A few fixed high-rank TLDs keep traces readable; the rest are synthetic.
    static constexpr const char* fixed[] = {"com", "net",  "org", "io",  "de",
                                            "uk",  "jp",   "cn",  "br",  "in",
                                            "ru",  "info", "biz", "dev", "app"};
    for (const char* t : fixed) {
        if (static_cast<int>(tlds_.size()) >= tld_count) break;
        tlds_.emplace_back(t);
    }
    int synth = 0;
    while (static_cast<int>(tlds_.size()) < tld_count) {
        std::string label = "tld" + strfmt::zero_padded(synth++, 4);
        tlds_.push_back(std::move(label));
    }

    // Zipf(1.0) popularity over rank order.
    popularity_.resize(tlds_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < tlds_.size(); ++i) {
        popularity_[i] = 1.0 / static_cast<double>(i + 1);
        total += popularity_[i];
    }
    for (auto& p : popularity_) p /= total;

    by_name_.resize(tlds_.size());
    for (std::size_t i = 0; i < tlds_.size(); ++i) by_name_[i] = i;
    std::sort(by_name_.begin(), by_name_.end(),
              [this](std::size_t a, std::size_t b) { return tlds_[a] < tlds_[b]; });
    (void)gen;  // reserved for future randomized TLD naming
}

bool root_zone::tld_exists(std::string_view tld) const {
    const std::string normalized = normalize_name(tld);
    auto it = std::lower_bound(by_name_.begin(), by_name_.end(), normalized,
                               [this](std::size_t i, const std::string& v) { return tlds_[i] < v; });
    return it != by_name_.end() && tlds_[*it] == normalized;
}

root_response root_zone::resolve(std::string_view qname) const {
    root_response response;
    const std::string normalized = normalize_name(qname);
    const std::string tld{tld_of(normalized)};
    if (!tld_exists(tld)) {
        response.nxdomain = true;
        // Negative answers carry the SOA minimum TTL (1 day at the root).
        response.ttl_s = 86400;
        return response;
    }
    response.tld = tld;
    // Two TLD nameservers with glue; AAAA glue only for the first, which is
    // one of the asymmetries that triggers the Appendix E redundant-query
    // pattern downstream.
    for (int i = 0; i < 2; ++i) {
        const std::string host = std::string(1, static_cast<char>('a' + i)) + ".nic." + tld;
        response.authority.push_back(resource_record{tld, rr_type::ns, tld_ttl_s, host});
        response.additional.push_back(
            resource_record{host, rr_type::a, tld_ttl_s, "192.0.2." + std::to_string(10 + i)});
        if (i == 0) {
            response.additional.push_back(
                resource_record{host, rr_type::aaaa, tld_ttl_s, "2001:db8::" + std::to_string(10 + i)});
        }
    }
    return response;
}

} // namespace ac::dns
