// Model C's memoized endpoint walk against an oracle.
//
// ReferenceC below is model C's per-op semantics written out directly:
// one scalar noise draw (or, for the Quantized variant, one alias draw)
// per op, the capture window from the noise table, and a walk over the
// class's endpoints in criticality order with one violation_prob per
// endpoint — no prefetch, no memo. ModelC must match it op for op in
// every sampling mode: the latched value, FiStats, forensic records and
// the generator state (in Batched mode, after every op that walked, where
// resync() has put the stream back in scalar order). The operating points
// move the frequency and switch sigma 10 -> 0 -> 25, so memo rows go
// stale, the noise-free row is used, and the table size changes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fi/forensics.hpp"
#include "fi/models.hpp"
#include "fi/noise.hpp"
#include "fi/sampling_batch.hpp"
#include "testing/shared_core.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

using testing::shared_core;

class ReferenceC {
public:
    ReferenceC(const TimingErrorCdfs& cdfs, const VddDelayFit& fit,
               bool alias_draws)
        : cdfs_(cdfs), fit_(fit), alias_draws_(alias_draws) {}

    void set_point(const OperatingPoint& point) {
        point_ = point;
        table_ = point.noise.sigma_mv > 0.0
                     ? build_noise_window_table(point, fit_)
                     : std::vector<double>{};
        alias_ = alias_draws_ && !table_.empty()
                     ? build_noise_index_alias(
                           point.noise.sigma_mv,
                           point.noise.clip_sigmas * point.noise.sigma_mv,
                           table_.size())
                     : AliasTable{};
    }
    void set_policy(FaultPolicy policy) { policy_ = policy; }
    void reseed(std::uint64_t seed) { rng_.reseed(seed); }

    std::uint32_t on_ex_result(const ExEvent& ev, std::uint32_t correct,
                               ForensicProbe* probe) {
        ++stats_.alu_ops;
        if (probe != nullptr) probe->begin_op(ev);
        walked_ = false;
        double window = point_.period_ps() / fit_.factor(point_.vdd);
        if (!table_.empty()) {
            const std::size_t index =
                alias_draws_ ? alias_.sample(rng_)
                             : noise_table_index(
                                   point_, VddNoise(point_.noise).draw(rng_),
                                   table_.size());
            window = table_[index];
        }
        if (cdfs_.class_max_window_ps(ev.cls) <= window) return correct;
        walked_ = true;
        std::uint32_t result = correct;
        bool injected = false;
        for (const std::uint32_t endpoint : cdfs_.endpoints_by_criticality(ev.cls)) {
            if (cdfs_.endpoint_max_window_ps(ev.cls, endpoint) <= window) break;
            const double p = cdfs_.violation_prob(ev.cls, endpoint, window);
            if (!(p > 0.0 && rng_.chance(p))) continue;
            const std::uint32_t mask = 1u << endpoint;
            const std::uint32_t before = result;
            result = policy_ == FaultPolicy::BitFlip
                         ? result ^ mask
                         : (result & ~mask) | (ev.prev_result & mask);
            ++stats_.injections;
            injected = true;
            if (probe != nullptr)
                probe->record_injection(endpoint, (before & mask) != 0,
                                        (result & mask) != 0, policy_);
        }
        if (injected) ++stats_.corrupted_ops;
        return result;
    }

    const Rng& rng() const { return rng_; }
    const FiStats& stats() const { return stats_; }
    bool walked() const { return walked_; }

private:
    const TimingErrorCdfs& cdfs_;
    const VddDelayFit& fit_;
    bool alias_draws_;
    OperatingPoint point_;
    std::vector<double> table_;
    AliasTable alias_;
    FaultPolicy policy_ = FaultPolicy::BitFlip;
    Rng rng_;
    FiStats stats_;
    bool walked_ = false;
};

bool same_stream(Rng a, Rng b) {
    for (int i = 0; i < 3; ++i)
        if (a.normal() != b.normal()) return false;
    for (int i = 0; i < 4; ++i)
        if (a() != b()) return false;
    return true;
}

OperatingPoint at(double freq_mhz, double sigma_mv) {
    OperatingPoint p;
    p.freq_mhz = freq_mhz;
    p.vdd = 0.7;
    p.noise.sigma_mv = sigma_mv;
    return p;
}

/// The point sequence: faulting Mul onset with noise, a frequency move,
/// sigma 0 (the noise-free row), sigma 25 (a fresh table), then back.
std::vector<OperatingPoint> point_sequence() {
    const double f_mul = shared_core().dynamic_fmax_mhz(ExClass::Mul, 0.7);
    const double f_add = shared_core().dynamic_fmax_mhz(ExClass::Add, 0.7);
    return {at(f_mul * 0.99, 10.0), at(f_mul * 1.04, 10.0),
            at(f_mul * 1.03, 0.0),  at(f_add * 1.02, 0.0),
            at(f_mul * 0.97, 25.0), at(f_mul * 0.99, 10.0)};
}

/// Drives `model` and the reference through the same trials and asserts
/// op-for-op equality; returns how many ops entered the endpoint walk.
/// Clones the model halfway through each point, so the clone's fresh
/// (all-stale) memo takes over mid-stream.
void run_against_oracle(FaultSamplingMode mode, FaultPolicy policy,
                        bool probed, std::size_t* walks = nullptr) {
    const auto& core = shared_core();
    std::unique_ptr<FaultModel> model = core.make_model_c();
    model->set_sampling_mode(mode);
    model->set_policy(policy);
    ReferenceC reference(*core.cdfs(), core.lib().fit(),
                         mode == FaultSamplingMode::Quantized);
    reference.set_policy(policy);
    ForensicProbe model_probe;
    ForensicProbe reference_probe;
    if (probed) model->set_forensic_probe(&model_probe);

    const ExClass classes[] = {ExClass::Mul, ExClass::Add, ExClass::Sub,
                               ExClass::Cmp, ExClass::Sll, ExClass::Xor};
    Rng operands(4242);
    std::size_t walked = 0;
    std::uint64_t seed = 9000;
    std::uint64_t cycle = 0;
    for (const OperatingPoint& point : point_sequence()) {
        model->set_operating_point(point);
        reference.set_point(point);
        for (int trial = 0; trial < 12; ++trial, ++seed) {
            if (trial == 6) {
                model->set_forensic_probe(nullptr);
                model = model->clone();
                if (probed) model->set_forensic_probe(&model_probe);
            }
            model->reseed(seed);
            reference.reseed(seed);
            model_probe.start_trial();
            reference_probe.start_trial();
            std::uint32_t prev = 0;
            for (int op = 0; op < 300; ++op) {
                ExEvent ev;
                ev.cls = classes[operands.bounded(std::size(classes))];
                ev.operand_a = operands.u32();
                ev.operand_b = operands.u32();
                ev.prev_result = prev;
                ev.cycle = ++cycle;
                const std::uint32_t correct = operands.u32();
                const std::uint32_t got = model->on_ex_result(ev, correct);
                const std::uint32_t want =
                    reference.on_ex_result(ev, correct, probed ? &reference_probe : nullptr);
                const std::string where = "f=" + std::to_string(point.freq_mhz) +
                                          " sigma=" + std::to_string(point.noise.sigma_mv) +
                                          " trial=" + std::to_string(trial) +
                                          " op=" + std::to_string(op);
                ASSERT_EQ(got, want) << where;
                ASSERT_EQ(model->stats().injections, reference.stats().injections) << where;
                ASSERT_EQ(model->stats().corrupted_ops, reference.stats().corrupted_ops)
                    << where;
                ASSERT_EQ(model->stats().alu_ops, reference.stats().alu_ops) << where;
                // Scalar and Quantized draw straight from the stream; Batched
                // prefetches, and is back in scalar order after every walk.
                if (mode != FaultSamplingMode::Batched || reference.walked()) {
                    ASSERT_TRUE(same_stream(model->rng(), reference.rng())) << where;
                }
                if (reference.walked()) ++walked;
                prev = got;
            }
            if (probed) {
                ASSERT_EQ(model_probe.records(), reference_probe.records())
                    << "trial seed " << seed;
            }
        }
    }
    EXPECT_GT(reference.stats().injections, 0u)
        << "operating points too safe: the oracle proved nothing";
    if (walks != nullptr) *walks = walked;
}

TEST(ModelCMemo, BatchedMatchesTheDirectWalkOpForOp) {
    std::size_t walks = 0;
    run_against_oracle(FaultSamplingMode::Batched, FaultPolicy::BitFlip, false,
                       &walks);
    EXPECT_GT(walks, 1000u);
}

TEST(ModelCMemo, QuantizedMatchesItsOwnDirectWalkOpForOp) {
    std::size_t walks = 0;
    run_against_oracle(FaultSamplingMode::Quantized, FaultPolicy::BitFlip, false,
                       &walks);
    EXPECT_GT(walks, 1000u);
}

TEST(ModelCMemo, ScalarStaysTheDirectWalk) {
    run_against_oracle(FaultSamplingMode::Scalar, FaultPolicy::BitFlip, false);
}

TEST(ModelCMemo, StaleCapturePolicyMatches) {
    run_against_oracle(FaultSamplingMode::Batched, FaultPolicy::StaleCapture,
                       false);
}

TEST(ModelCMemo, ForensicRecordsMatchPerEndpoint) {
    run_against_oracle(FaultSamplingMode::Batched, FaultPolicy::BitFlip, true);
    run_against_oracle(FaultSamplingMode::Quantized, FaultPolicy::BitFlip, true);
}

}  // namespace
}  // namespace sfi
