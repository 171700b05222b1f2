#include "src/topology/as_graph.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/trace.h"

namespace ac::topo {

std::string_view to_string(as_role role) noexcept {
    switch (role) {
        case as_role::tier1: return "tier1";
        case as_role::transit: return "transit";
        case as_role::eyeball: return "eyeball";
        case as_role::content: return "content";
        case as_role::enterprise: return "enterprise";
    }
    return "unknown";
}

namespace {

std::uint64_t link_key(asn_t a, asn_t b) noexcept {
    const auto lo = std::min(a, b);
    const auto hi = std::max(a, b);
    return (std::uint64_t{lo} << 32) | hi;
}

} // namespace

as_graph::as_graph(const region_table& regions)
    : regions_(&regions), region_count_(regions.size()), single_row_(region_count_, no_row) {}

void as_graph::add_as(autonomous_system as) {
    if (index_.contains(as.asn)) {
        throw std::invalid_argument("as_graph: duplicate ASN " + std::to_string(as.asn));
    }
    index_.emplace(as.asn, systems_.size());
    adjacency_.emplace_back();
    systems_.push_back(std::move(as));
}

void as_graph::add_link(asn_t a, asn_t b, as_relationship kind_for_a,
                        std::vector<region_id> interconnect_regions, double circuitousness) {
    if (a == b) throw std::invalid_argument("as_graph: self-link on ASN " + std::to_string(a));
    if (!has_as(a) || !has_as(b)) {
        throw std::invalid_argument("as_graph: link references unregistered ASN");
    }
    if (interconnect_regions.empty()) {
        throw std::invalid_argument("as_graph: link requires at least one interconnect region");
    }
    if (regions_->size() != region_count_) {
        throw std::logic_error("as_graph: region table changed size after construction");
    }
    for (const region_id p : interconnect_regions) {
        if (p >= region_count_) {
            throw std::invalid_argument("as_graph: interconnect region out of range");
        }
    }
    const auto key = link_key(a, b);
    if (link_lookup_.contains(key)) {
        throw std::invalid_argument("as_graph: duplicate link");
    }
    const auto link_index = static_cast<std::uint32_t>(links_.size());
    link_lookup_.emplace(key, link_index);
    append_nearest_row(interconnect_regions);
    links_.push_back(as_link{a, b, kind_for_a, std::move(interconnect_regions), circuitousness});
    const std::size_t ia = index_of(a);
    const std::size_t ib = index_of(b);
    adjacency_[ia].push_back(
        neighbor_ref{b, kind_for_a, link_index, static_cast<std::uint32_t>(ib)});
    adjacency_[ib].push_back(
        neighbor_ref{a, invert(kind_for_a), link_index, static_cast<std::uint32_t>(ia)});
}

void as_graph::append_nearest_row(std::span<const region_id> interconnects) {
    obs::span fill_span{"topo/nearest_interconnect"};
    fill_span.set_items(1);
    if (interconnects.size() == 1) {
        std::uint32_t& shared = single_row_[interconnects.front()];
        if (shared == no_row) shared = new_row(interconnects.front());
        row_of_link_.push_back(shared);
        return;
    }
    // Argmin per source region over the interconnects in link order, strict
    // less: the first nearest wins a tie. The distance table is symmetric,
    // so each interconnect's contiguous row stands in for its column. The
    // first interconnect beats the initial +inf everywhere, so it seeds the
    // running minimum directly.
    const std::uint32_t row_index = new_row(interconnects.front());
    const geo::distance_table& km = regions_->distances();
    const auto first = km.row(interconnects.front());
    std::vector<double> best_km(first.begin(), first.end());
    region_id* row = nearest_rows_.data() + std::size_t{row_index} * region_count_;
    for (const region_id p : interconnects.subspan(1)) {
        const auto from_p = km.row(p);
        for (std::size_t r = 0; r < region_count_; ++r) {
            if (from_p[r] < best_km[r]) {
                best_km[r] = from_p[r];
                row[r] = p;
            }
        }
    }
    row_of_link_.push_back(row_index);
}

std::uint32_t as_graph::new_row(region_id fill) {
    const auto index = static_cast<std::uint32_t>(nearest_rows_.size() / region_count_);
    nearest_rows_.resize(nearest_rows_.size() + region_count_, fill);
    return index;
}

bool as_graph::has_link(asn_t a, asn_t b) const noexcept {
    return link_lookup_.contains(link_key(a, b));
}

const autonomous_system& as_graph::at(asn_t asn) const {
    return systems_[index_of(asn)];
}

std::span<const neighbor_ref> as_graph::neighbors(asn_t asn) const {
    return adjacency_[index_of(asn)];
}

std::size_t as_graph::find_index(asn_t asn) const noexcept {
    auto it = index_.find(asn);
    return it == index_.end() ? npos : it->second;
}

std::vector<asn_t> as_graph::with_role(as_role role) const {
    std::vector<asn_t> out;
    for (const auto& as : systems_) {
        if (as.role == role) out.push_back(as.asn);
    }
    return out;
}

std::size_t as_graph::index_of(asn_t asn) const {
    auto it = index_.find(asn);
    if (it == index_.end()) {
        throw std::out_of_range("as_graph: unknown ASN " + std::to_string(asn));
    }
    return it->second;
}

} // namespace ac::topo
