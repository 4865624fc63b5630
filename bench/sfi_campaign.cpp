// Campaign driver: runs any of the built-in figure/ablation campaigns
// (src/campaign/figures.hpp) against a shared persistent point store,
// printing each figure's panel headers and, once a campaign completes,
// its report (combined tables, paper anchors).
//
//   sfi_campaign --list
//   sfi_campaign --figures fig1,fig5 --trials 100 --threads 0
//   sfi_campaign                       # every figure campaign
//
// Completed points land in the store (--store, default
// sfi_point_store.bin) as soon as they finish, so an interrupted run —
// Ctrl-C stops cleanly after the point in flight — resumes where it
// left off, and a re-run with identical parameters is served entirely
// from the store with byte-identical CSV output (the resume contract;
// CI enforces it).
#include <csignal>
#include <sstream>

#include "bench_common.hpp"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void handle_sigint(int) {
    g_interrupted = 1;
    // Re-arm default handling: the campaign only checks the flag between
    // points, so a second Ctrl-C during a long in-flight point must still
    // be able to terminate the process.
    std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sfi;
    bench::Context ctx(argc, argv, /*default_trials=*/0, {"figures", "list"});

    if (ctx.cli.get_bool("list", false)) {
        std::cout << "built-in figure campaigns:\n";
        for (const campaign::figures::Figure& figure :
             campaign::figures::figure_table())
            std::cout << "  " << figure.name << "\n";
        return 0;
    }

    // --figures a,b,c ("all" or empty = everything). Every name is
    // validated up front: a typo late in the list must not surface only
    // after earlier campaigns already ran for minutes.
    std::vector<const campaign::figures::Figure*> selected;
    const std::string list = ctx.cli.get("figures", "all");
    if (list == "all" || list.empty()) {
        for (const campaign::figures::Figure& figure :
             campaign::figures::figure_table())
            selected.push_back(&figure);
    } else {
        std::istringstream names(list);
        for (std::string name; std::getline(names, name, ',');) {
            if (name.empty()) continue;
            const campaign::figures::Figure* figure =
                campaign::figures::find_figure(name);
            if (figure == nullptr) {
                std::cerr << "error: unknown figure campaign: " << name
                          << " (see --list)\n";
                return 2;
            }
            selected.push_back(figure);
        }
    }

    std::signal(SIGINT, handle_sigint);

    std::size_t total_hits = 0, total_misses = 0;
    bool all_completed = true;
    for (const campaign::figures::Figure* figure : selected) {
        campaign::CampaignSpec spec =
            figure->make(ctx.core_config, ctx.trials, ctx.seed);
        ctx.apply_to(spec);  // --watchdog-factor / --sampling / --ci-target
        campaign::RunOptions options = ctx.campaign_options();
        options.cancelled = [] { return g_interrupted != 0; };
        std::cout << "=== campaign " << figure->name << " ===\n";
        const campaign::CampaignResult result = campaign::figures::run_figure(
            *figure, std::move(spec), std::move(options));
        total_hits += result.store_hits;
        total_misses += result.store_misses;
        if (!result.completed) {
            all_completed = false;
            std::cout << "[interrupted — completed points are persisted; "
                         "re-run to resume]\n";
            break;
        }
        std::cout << "\n";
    }

    std::cout << "store: " << total_hits << " hits, " << total_misses
              << " misses\n";
    ctx.footer();
    return all_completed ? 0 : 130;
}
