// Figure CSV exports.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/world.h"
#include "src/obs/trace.h"
#include "tests/figure_goldens.h"

namespace {

using namespace ac;

class ReportFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }

    static std::filesystem::path temp_dir() {
        // Unique per test: the suite runs in parallel processes.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        const auto dir = std::filesystem::temp_directory_path() /
                         (std::string{"ac_report_"} + info->name());
        std::filesystem::remove_all(dir);
        return dir;
    }

    static std::vector<std::string> read_lines(const std::string& path) {
        std::ifstream in{path};
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
        return lines;
    }

    static std::string read_bytes(const std::string& path) {
        std::ifstream in{path, std::ios::binary};
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    }

    static void expect_golden_files(const std::vector<std::string>& files,
                                    const std::string& context) {
        ASSERT_EQ(files.size(), test::figure_goldens().size()) << context;
        for (const auto& f : files) {
            const auto name = std::filesystem::path{f}.filename().string();
            const auto it = test::figure_goldens().find(name);
            ASSERT_NE(it, test::figure_goldens().end())
                << "unexpected figure file " << name << " (" << context << ")";
            EXPECT_EQ(test::fnv1a(read_bytes(f)), it->second) << name << " (" << context << ")";
        }
    }
};

TEST_F(ReportFixture, WritesAllFigureFiles) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    EXPECT_EQ(files.size(), test::figure_goldens().size());
    for (const auto& f : files) {
        EXPECT_TRUE(std::filesystem::exists(f)) << f;
        EXPECT_GT(std::filesystem::file_size(f), 0u) << f;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, CsvHasHeaderAndParsableRows) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    for (const auto& f : files) {
        const auto lines = read_lines(f);
        ASSERT_GT(lines.size(), 1u) << f;
        // Header: no digits in first char; all rows have the same number of
        // commas as the header.
        const auto commas = static_cast<long>(
            std::count(lines[0].begin(), lines[0].end(), ','));
        EXPECT_GE(commas, 2) << f;
        for (std::size_t i = 1; i < lines.size(); ++i) {
            EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), commas)
                << f << " line " << i;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, CdfColumnsAreMonotone) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    // fig03: per series, the cdf column must be non-decreasing.
    const auto fig03 = std::find_if(files.begin(), files.end(), [](const std::string& f) {
        return f.find("fig03") != std::string::npos;
    });
    ASSERT_NE(fig03, files.end());
    std::map<std::string, double> last_cdf;
    const auto lines = read_lines(*fig03);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::istringstream row{lines[i]};
        std::string series;
        std::string value;
        std::string cdf;
        std::getline(row, series, ',');
        std::getline(row, value, ',');
        std::getline(row, cdf, ',');
        const double q = std::stod(cdf);
        auto it = last_cdf.find(series);
        if (it != last_cdf.end()) {
            EXPECT_GE(q, it->second - 1e-12);
        }
        last_cdf[series] = q;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, IdenticalWorldsRenderIdenticalReports) {
    // No hash iteration order may leak into the figures: a second world built
    // from the same config must render byte-identical CSVs.
    const core::world other{core::world_config::small()};
    const auto dir_a = temp_dir() += "_a";
    const auto dir_b = temp_dir() += "_b";
    const auto files_a = core::write_figure_csvs(w(), dir_a.string());
    const auto files_b = core::write_figure_csvs(other, dir_b.string());
    ASSERT_EQ(files_a.size(), files_b.size());
    for (std::size_t i = 0; i < files_a.size(); ++i) {
        EXPECT_EQ(read_bytes(files_a[i]), read_bytes(files_b[i]))
            << files_a[i] << " vs " << files_b[i];
    }
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
}

TEST_F(ReportFixture, GoldenChecksumsPinFigureBytes) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    expect_golden_files(files, "default config");
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, ThreadCountNeverChangesFigureBytes) {
    // The determinism contract: memoized route selection, parallel RIB
    // construction, and pooled stages must leave every figure byte-identical
    // at any thread count — the goldens above, unchanged.
    for (const int threads : {1, 2, 8}) {
        auto config = core::world_config::small();
        config.threads = threads;
        const core::world threaded{std::move(config)};
        const auto dir = temp_dir() += "_t" + std::to_string(threads);
        const auto files = core::write_figure_csvs(threaded, dir.string());
        expect_golden_files(files, "threads=" + std::to_string(threads));
        std::filesystem::remove_all(dir);
    }
}

TEST_F(ReportFixture, ObservabilityNeverChangesFigureBytes) {
    // Spans and metrics observe, they do not participate: a world built with
    // tracing enabled and every instrumented subsystem recording must still
    // produce the goldens above, byte for byte. (The CLI equivalent —
    // `acctx report --trace --metrics-json` vs a flag-less run — is checked
    // by ci/verify.sh's round trip.) The trace must also name the DITL
    // letters and every figure block, so neither phase runs dark.
    obs::enable_tracing();
    auto config = core::world_config::small();
    config.threads = 4;
    const core::world traced{std::move(config)};
    const auto dir = temp_dir() += "_traced";
    const auto files = core::write_figure_csvs(traced, dir.string());
    obs::disable_tracing();

    expect_golden_files(files, "tracing enabled");
    EXPECT_GT(obs::trace_event_count(), 0u);
    EXPECT_EQ(obs::trace_dropped_count(), 0u);
    std::ostringstream trace;
    obs::write_chrome_trace(trace);
    const std::string json = trace.str();
    for (const char* name :
         {"ditl/letter", "report/root_inflation", "report/cdn_inflation", "report/fig01",
          "report/fig02a", "report/fig02b", "report/fig03", "report/fig04a", "report/fig04b",
          "report/fig05a", "report/fig05b", "report/fig06a", "report/fig06b", "report/fig07a",
          "report/fig07b", "report/raw_tables", "report/fig08", "report/fig09", "report/fig10",
          "report/fig14", "report/tab04"}) {
        EXPECT_NE(json.find(std::string{"\""} + name + "\""), std::string::npos)
            << "no span named " << name;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
