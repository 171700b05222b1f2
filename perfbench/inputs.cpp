#include "perfbench/inputs.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t batch_keys = 32;

std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string slash24_text(std::uint32_t key) {
    return std::to_string((key >> 16) & 0xff) + "." + std::to_string((key >> 8) & 0xff) + "." +
           std::to_string(key & 0xff) + ".0";
}

std::string join(const std::vector<std::uint32_t>& values, bool as_slash24) {
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += as_slash24 ? slash24_text(values[i]) : std::to_string(values[i]);
    }
    return out;
}

} // namespace

seeded_rng::seeded_rng(std::uint64_t seed, std::string_view stream) : state_(mix(seed)) {
    for (const char c : stream) state_ = mix(state_ ^ static_cast<unsigned char>(c));
}

std::uint64_t seeded_rng::next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(state_);
}

std::uint64_t seeded_rng::uniform(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
}

std::vector<std::uint64_t> world_seeds(std::uint64_t seed, std::string_view workload, int count) {
    seeded_rng rng{seed, workload};
    std::vector<std::uint64_t> seeds;
    while (static_cast<int>(seeds.size()) < count) {
        const std::uint64_t s = rng.uniform(1, 999'999);
        if (std::find(seeds.begin(), seeds.end(), s) == seeds.end()) seeds.push_back(s);
    }
    return seeds;
}

std::string failover_timeline(std::uint64_t seed, const ac::dns::root_system& roots,
                              char withdrawn) {
    seeded_rng rng{seed, std::string{"failover-"} + withdrawn};
    std::vector<char> letters = roots.all_letters();
    std::erase(letters, withdrawn);
    // Two distinct other letters drain one site each.
    for (std::size_t i = 0; i < 2; ++i) {
        std::swap(letters[i], letters[rng.uniform(i, letters.size() - 1)]);
    }
    const auto site_of = [&](char letter) {
        return rng.uniform(0, roots.deployment_of(letter).sites().size() - 1);
    };
    const std::uint64_t site_a = site_of(letters[0]);
    const std::uint64_t site_b = site_of(letters[1]);
    const std::string a{letters[0]};
    const std::string b{letters[1]};
    const std::string c{withdrawn};
    return "1 drain " + a + " " + std::to_string(site_a) + "\n" +  //
           "2 drain " + b + " " + std::to_string(site_b) + "\n" +  //
           "3 withdraw " + c + "\n" +                              //
           "4 restore " + a + " " + std::to_string(site_a) + "\n" +
           "5 restore " + b + " " + std::to_string(site_b) + "\n" +  //
           "6 announce " + c + "\n";
}

std::string demand_timeline(std::uint64_t seed, std::size_t region_count) {
    seeded_rng rng{seed, "demand"};
    const std::uint64_t flash_region = rng.uniform(0, region_count - 1);
    std::uint64_t hotspot_region = rng.uniform(0, region_count - 1);
    if (hotspot_region == flash_region) hotspot_region = (hotspot_region + 1) % region_count;
    return "0 demand-diurnal " + std::to_string(rng.uniform(20, 60)) + " 24\n" +
           std::to_string(rng.uniform(2, 10)) + " demand-flash " + std::to_string(flash_region) +
           " " + std::to_string(rng.uniform(150, 400)) + " " + std::to_string(rng.uniform(2, 6)) +
           "\n" + std::to_string(rng.uniform(12, 20)) + " demand-hotspot " +
           std::to_string(hotspot_region) + " " + std::to_string(rng.uniform(120, 300)) + "\n";
}

std::vector<serve_request> serve_requests(std::uint64_t seed, const ac::serve::query_engine& engine,
                                          std::size_t count) {
    using kind = serve_request::kind;
    seeded_rng rng{seed, "serve"};
    const auto& index = engine.index();
    const auto asns = index.asns();
    const auto slash24s = index.slash24_keys();
    const auto& roots = engine.world().roots();
    const std::vector<char> letters = roots.all_letters();
    const std::size_t regions = engine.world().regions().size();

    // The warmed (AS, region) set: the recursive locations the engine
    // pre-selects and seals at startup.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> warmed;
    {
        std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
        for (const auto& rec : engine.world().users().recursives()) {
            if (seen.emplace(rec.asn, rec.region).second) warmed.emplace_back(rec.asn, rec.region);
        }
    }

    const auto unknown_asn = [&] {
        for (;;) {
            const auto asn =
                static_cast<std::uint32_t>(rng.uniform(4'000'000'000ULL, 4'294'967'295ULL));
            if (index.inflation(asn) == nullptr) return asn;
        }
    };
    const auto unknown_slash24 = [&] {
        for (;;) {
            const auto key = static_cast<std::uint32_t>(rng.uniform(0, 0xffffff));
            if (index.amortized(key) == nullptr) return key;
        }
    };
    const auto letter = [&] { return letters[rng.uniform(0, letters.size() - 1)]; };

    // Fixed shares (35/35/20/10) so every seed has the same mix; the batched
    // kinds hold the median, away from the boundary between request kinds.
    std::vector<kind> kinds;
    kinds.insert(kinds.end(), count * 35 / 100, kind::inflation);
    kinds.insert(kinds.end(), count * 35 / 100, kind::amortized);
    kinds.insert(kinds.end(), count * 20 / 100, kind::route);
    kinds.resize(count, kind::catchment);
    for (std::size_t i = count; i > 1; --i) std::swap(kinds[i - 1], kinds[rng.uniform(0, i - 1)]);

    std::vector<serve_request> out;
    out.reserve(count);
    for (const kind k : kinds) {
        serve_request r;
        r.type = k;
        switch (k) {
        case kind::inflation:
            for (std::size_t i = 0; i < batch_keys; ++i) {
                r.keys.push_back(rng.uniform(0, 15) == 0 ? unknown_asn()
                                                         : asns[rng.uniform(0, asns.size() - 1)]);
            }
            r.target = "/inflation?asn=" + join(r.keys, false);
            break;
        case kind::amortized:
            for (std::size_t i = 0; i < batch_keys; ++i) {
                r.keys.push_back(rng.uniform(0, 15) == 0
                                     ? unknown_slash24()
                                     : slash24s[rng.uniform(0, slash24s.size() - 1)]);
            }
            r.target = "/amortized?slash24=" + join(r.keys, true);
            break;
        case kind::route:
            r.letter = letter();
            if (rng.uniform(0, 3) == 0) {  // cold: off the sealed fast path
                r.asn = asns[rng.uniform(0, asns.size() - 1)];
                r.region = static_cast<std::uint32_t>(rng.uniform(0, regions - 1));
            } else {
                const auto& [asn, region] = warmed[rng.uniform(0, warmed.size() - 1)];
                r.asn = asn;
                r.region = region;
            }
            r.target = "/route?letter=" + std::string{r.letter} + "&asn=" + std::to_string(r.asn) +
                       "&region=" + std::to_string(r.region);
            break;
        case kind::catchment: {
            r.letter = letter();
            const std::size_t sites = roots.deployment_of(r.letter).sites().size();
            const std::uint64_t n = rng.uniform(1, 4);
            for (std::uint64_t i = 0; i < n; ++i) {
                r.keys.push_back(static_cast<std::uint32_t>(rng.uniform(0, sites - 1)));
            }
            r.target =
                "/catchment?letter=" + std::string{r.letter} + "&site=" + join(r.keys, false);
            break;
        }
        }
        out.push_back(std::move(r));
    }
    return out;
}

void engine_answer(const ac::serve::query_engine& engine, const serve_request& request,
                   std::string& out) {
    using kind = serve_request::kind;
    bool ok = true;
    switch (request.type) {
    case kind::inflation: engine.inflation_json(request.keys, out); break;
    case kind::amortized: engine.amortized_json(request.keys, out); break;
    case kind::route:
        ok = engine.route_json(request.letter, request.asn,
                               static_cast<ac::topo::region_id>(request.region), out);
        break;
    case kind::catchment: ok = engine.catchment_json(request.letter, request.keys, out); break;
    }
    if (!ok) throw std::runtime_error("perfbench: generated request is invalid: " + request.target);
}

} // namespace perfbench
