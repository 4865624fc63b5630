// Built-in CampaignSpecs for the paper's figure panels and the ablation
// studies, plus the figure table that `sfi_campaign --figures <name>`
// runs. Each factory takes the shared core configuration plus the
// Monte-Carlo knobs; `trials = 0` selects the figure's historical
// default trial count.
//
// A table entry pairs a factory with its console presentation: a
// header printed before each Monte-Carlo panel (it echoes runtime
// anchors such as the STA limit) and a report rendered from the
// completed result (combined tables, paper-anchor lines).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace sfi::campaign::figures {

CampaignSpec fig1(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig2(const CoreModelConfig& core);
CampaignSpec fig4(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig5(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig6(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec fig7(const CoreModelConfig& core, std::size_t trials = 0,
                  std::uint64_t seed = 1);
CampaignSpec ablation_adder(const CoreModelConfig& core, std::size_t trials = 0,
                            std::uint64_t seed = 1);
CampaignSpec ablation_compression(const CoreModelConfig& core,
                                  std::size_t trials = 0,
                                  std::uint64_t seed = 1);
CampaignSpec ablation_noise_clip(const CoreModelConfig& core,
                                 std::size_t trials = 0,
                                 std::uint64_t seed = 1);
CampaignSpec ablation_policy(const CoreModelConfig& core,
                             std::size_t trials = 0, std::uint64_t seed = 1);

/// One built-in figure campaign.
struct Figure {
    const char* name;
    CampaignSpec (*make)(const CoreModelConfig& core, std::size_t trials,
                         std::uint64_t seed);
    /// Printed before each Monte-Carlo panel runs; null = none.
    void (*header)(std::ostream& os, const PanelSpec& panel,
                   const CharacterizedCore& core);
    /// Printed after a completed run; null = none.
    void (*report)(std::ostream& os, CampaignRunner& runner,
                   const CampaignResult& result);
};

/// Every built-in campaign, in `sfi_campaign --list` order.
const std::vector<Figure>& figure_table();

/// Table entry by name; null for unknown names.
const Figure* find_figure(const std::string& name);

/// Factory by name; throws std::invalid_argument for unknown names.
CampaignSpec make_figure(const std::string& name, const CoreModelConfig& core,
                         std::size_t trials = 0, std::uint64_t seed = 1);

/// Runs `spec` with `figure`'s presentation on options.console: the
/// header hook is installed as RunOptions::on_panel_start, and the
/// report runs only when the campaign completed (a cancelled run's
/// panels may be partial, so no report is printed).
CampaignResult run_figure(const Figure& figure, CampaignSpec spec,
                          RunOptions options);

}  // namespace sfi::campaign::figures
