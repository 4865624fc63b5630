// CDF cache round-trip of CharacterizedCore (see docs/ARCHITECTURE.md):
// a second construction with the same configuration and cache path must
// load the cached store instead of re-running DTA; a configuration
// change or a corrupt payload must fall back to recharacterization.
#include "fi/core_model.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sfi {
namespace {

namespace fs = std::filesystem;

std::vector<char> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

class CdfCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-process filename: concurrent ctest runs (e.g. the default and
        // debug build trees) must not clobber each other's cache file.
        cache_path_ = (fs::path(::testing::TempDir()) /
                       ("sfi_cdf_cache_smoke_" + std::to_string(::getpid()) +
                        ".bin"))
                          .string();
        fs::remove(cache_path_);
    }
    void TearDown() override { fs::remove(cache_path_); }

    // Short DTA kernel: the cache mechanics are length-independent.
    CoreModelConfig config(std::size_t cycles = 256) const {
        CoreModelConfig c;
        c.dta.cycles = cycles;
        c.cdf_cache_path = cache_path_;
        return c;
    }

    std::string cache_path_;
};

TEST_F(CdfCacheTest, FirstConstructionWritesCache) {
    const CharacterizedCore core(config());
    ASSERT_TRUE(fs::exists(cache_path_));
    // fingerprint (8 bytes) + non-empty serialized store
    EXPECT_GT(fs::file_size(cache_path_), 8u);
}

TEST_F(CdfCacheTest, SecondConstructionHitsCache) {
    const CharacterizedCore first(config());
    ASSERT_TRUE(fs::exists(cache_path_));
    const std::vector<char> cached = read_file(cache_path_);
    ASSERT_GT(cached.size(), 8u);

    // Forge the cached payload: keep the valid fingerprint but store the
    // CDFs of a differently-seeded characterization. Only a genuine cache
    // hit can surface the forged store — a silent re-characterization
    // would reproduce `first`'s CDFs instead.
    CoreModelConfig forged_config = config();
    forged_config.cdf_cache_path.clear();
    forged_config.dta.seed ^= 0x5eedULL;
    const CharacterizedCore forged(forged_config);
    ASSERT_FALSE(*forged.cdfs() == *first.cdfs());
    {
        std::ofstream os(cache_path_, std::ios::binary | std::ios::trunc);
        os.write(cached.data(), 8);
        forged.cdfs()->save(os);
    }

    const CharacterizedCore second(config());
    EXPECT_TRUE(*second.cdfs() == *forged.cdfs());
    EXPECT_FALSE(*second.cdfs() == *first.cdfs());
}

TEST_F(CdfCacheTest, SameConfigReproducesIdenticalStore) {
    const CharacterizedCore first(config());
    const CharacterizedCore second(config());
    EXPECT_TRUE(*second.cdfs() == *first.cdfs());
}

TEST_F(CdfCacheTest, FingerprintChangeInvalidatesCache) {
    const CharacterizedCore first(config(256));
    const CharacterizedCore second(config(512));
    EXPECT_EQ(second.cdfs()->samples_per_endpoint(), 512u);
    EXPECT_FALSE(*second.cdfs() == *first.cdfs());
    // The cache now holds the new fingerprint + store.
    const CharacterizedCore third(config(512));
    EXPECT_TRUE(*third.cdfs() == *second.cdfs());
}

TEST_F(CdfCacheTest, CorruptPayloadFallsBackToCharacterization) {
    const CharacterizedCore first(config());
    const std::vector<char> cached = read_file(cache_path_);
    ASSERT_GT(cached.size(), 16u);
    // Truncate the payload but keep the valid fingerprint.
    std::ofstream(cache_path_, std::ios::binary | std::ios::trunc)
        .write(cached.data(), 16);
    const CharacterizedCore second(config());
    EXPECT_TRUE(*second.cdfs() == *first.cdfs());
}

// Writers of different configurations racing on one cache file (parallel
// ctest suites share a cache path). Every construction — cache hit or
// fresh characterization — must reproduce its own configuration's store,
// so no reader ever accepts a payload published under another
// fingerprint; and a watcher reading the file throughout must only ever
// find one writer's complete file, never a truncated or interleaved one.
TEST_F(CdfCacheTest, ConcurrentWritersNeverTearTheFile) {
    std::array<CoreModelConfig, 2> configs = {config(), config()};
    configs[1].dta.seed ^= 0x5eedULL;
    std::array<std::string, 2> expected;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        CoreModelConfig uncached = configs[i];
        uncached.cdf_cache_path.clear();
        std::ostringstream os;
        CharacterizedCore(uncached).cdfs()->save(os);
        expected[i] = os.str();
    }
    ASSERT_NE(expected[0], expected[1]);

    const auto whole_file = [&](const std::string& bytes) {
        if (bytes.size() < 8) return false;
        std::uint64_t stored = 0;
        std::memcpy(&stored, bytes.data(), sizeof stored);
        for (std::size_t i = 0; i < configs.size(); ++i)
            if (stored == core_config_fingerprint(configs[i]) &&
                bytes.compare(8, std::string::npos, expected[i]) == 0)
                return true;
        return false;
    };

    std::atomic<bool> done{false};
    std::size_t reads = 0, torn = 0;
    std::thread watcher([&] {
        while (!done.load()) {
            std::ifstream is(cache_path_, std::ios::binary);
            if (!is) continue;  // not published yet
            const std::string bytes{std::istreambuf_iterator<char>(is),
                                    std::istreambuf_iterator<char>()};
            ++reads;
            if (!whole_file(bytes)) ++torn;
        }
    });

    // Two threads per configuration: each construction that finds the
    // other configuration's file recharacterizes and republishes.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRounds = 2;
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t round = 0; round < kRounds; ++round) {
                const CharacterizedCore core(configs[t % 2]);
                std::ostringstream os;
                core.cdfs()->save(os);
                if (os.str() != expected[t % 2]) ++mismatches;
            }
        });
    for (std::thread& thread : threads) thread.join();
    done = true;
    watcher.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(reads, 0u);
    EXPECT_EQ(torn, 0u) << "of " << reads << " reads";
    std::ifstream is(cache_path_, std::ios::binary);
    EXPECT_TRUE(whole_file({std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()}));

    // Every temp file was renamed into place.
    const fs::path cache(cache_path_);
    for (const auto& entry : fs::directory_iterator(cache.parent_path()))
        EXPECT_NE(entry.path().filename().string().rfind(
                      cache.filename().string() + ".tmp", 0),
                  0u)
            << entry.path();
}

}  // namespace
}  // namespace sfi
