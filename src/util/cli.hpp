// Tiny command-line option parser for the bench/example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sfi {

class Cli {
public:
    /// Parses argv. With the one-argument form every option is accepted
    /// silently; pass a vocabulary of known option names to have the
    /// parser classify anything else into `unknown_flags()`. Unknown
    /// options are still parsed and retrievable through get*() — callers
    /// warn instead of aborting, preserving the pass-through behavior
    /// binaries that forward foreign flags (bench_microbench) rely on.
    Cli(int argc, const char* const* argv);
    Cli(int argc, const char* const* argv, std::vector<std::string> known);

    bool has(const std::string& name) const;
    std::string get(const std::string& name, const std::string& def) const;
    std::int64_t get_int(const std::string& name, std::int64_t def) const;
    double get_double(const std::string& name, double def) const;
    bool get_bool(const std::string& name, bool def) const;

    /// Strict parser for inherently non-negative quantities (--trials,
    /// --seed): a negative or unparseable value would otherwise wrap to
    /// a huge unsigned and silently run a nonsense experiment, so it
    /// throws std::invalid_argument naming the flag instead. Accepts the
    /// full std::uint64_t range (seeds are arbitrary 64-bit values).
    std::uint64_t get_uint(const std::string& name, std::uint64_t def) const;

    /// Strict parser for quantities that must be finite and strictly
    /// positive (--watchdog-factor, --ci-target): "nan", "inf", zero or
    /// negative values would silently disarm the watchdog or turn the
    /// adaptive stopping rule into an infinite loop, so they throw
    /// std::invalid_argument naming the flag — the same contract as
    /// get_uint.
    double get_positive_double(const std::string& name, double def) const;

    /// The shared `--threads` parser for McConfig::threads: non-negative
    /// worker count, where 0 means one worker per CPU in the affinity mask.
    /// Negative values would wrap std::size_t to a huge count, so they are
    /// clamped to 0 (= auto) in this one place.
    std::size_t get_threads(std::size_t def = 0) const;

    /// Positional (non-option) arguments, in order.
    const std::vector<std::string>& positional() const { return positional_; }
    /// Options seen on the command line but absent from the `known`
    /// vocabulary (always empty when none was given).
    const std::vector<std::string>& unknown_flags() const { return unknown_; }
    const std::string& program() const { return program_; }

private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
    std::vector<std::string> unknown_;
};

}  // namespace sfi
