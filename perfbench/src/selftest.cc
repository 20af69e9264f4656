/**
 * @file
 * `perfbench_selftest WORKLOAD [PINNED_FILE]` — fidelity self-test of
 * one benchmark workload. Exits 0 when every check passes:
 *
 *  1. fidelity: at master seed 42 and the grid point's full horizon,
 *     the scenario's canonical run entry is byte-identical to the one
 *     the harness produces for that point (`hawksim_bench --filter`);
 *  2. inertness: the traced scenario (decorators, spans, decomposed
 *     virtual tick) gives the same digest as the untraced one, at the
 *     full horizon and at the benchmark horizon;
 *  3. held-out seed: at master seed 7 and the benchmark horizon, two
 *     untraced runs and a traced one give one digest;
 *  4. pins: where PINNED_FILE pins a digest for seed 42 or 7, the
 *     benchmark-horizon digest equals it.
 */

#include <cstdio>
#include <string>

#include "experiments.hh"
#include "harness/runner.hh"
#include "scenario.hh"

using namespace perfbench;

namespace {

constexpr std::uint64_t kGridSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 7;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok)
        failures++;
}

/** The harness's own run entry for @p def's grid point. */
std::string
harnessEntry(const WorkloadDef &def)
{
    harness::Registry reg;
    bench::registerFig1RedisRss(reg);
    bench::registerFig8Heterogeneous(reg);
    bench::registerFig9Virtualization(reg);
    bench::registerFig11Overcommit(reg);
    harness::RunnerOptions opts;
    opts.jobs = 1;
    opts.masterSeed = kGridSeed;
    opts.filter = def.point.experiment + "/" + def.point.label();
    const harness::Report report = harness::Runner(opts).run(reg);
    if (report.runs.size() != 1)
        return "filter matched " + std::to_string(report.runs.size()) +
               " points";
    return report.toJson()["runs"].at(0).dump();
}

struct Result
{
    std::string entry;
    std::string digest;
};

Result
simulate(const WorkloadDef &def, std::uint64_t seed, TimeNs horizon,
         bool traced)
{
    Spans spans;
    std::unique_ptr<Scenario> sc =
        build(def, seed, traced ? &spans : nullptr);
    runTo(*sc, horizon);
    const harness::Json guest = sc->guestState();
    Result r;
    r.entry = runEntry(def, seed, sc->finish());
    r.digest = digest(r.entry, guest);
    return r;
}

std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        i++;
    const std::size_t from = i > 40 ? i - 40 : 0;
    return " (first difference at byte " + std::to_string(i) +
           ": harness ..." + a.substr(from, 80) + "... vs benchmark ..." +
           b.substr(from, 80) + "...)";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || findWorkload(argv[1]) == nullptr) {
        std::fprintf(stderr,
                     "usage: perfbench_selftest WORKLOAD [PINNED_FILE]\n");
        return 2;
    }
    const WorkloadDef &def = *findWorkload(argv[1]);
    const std::string pinFile = argc > 2 ? argv[2] : "";

    const std::string ref = harnessEntry(def);
    const Result full = simulate(def, kGridSeed, def.fullHorizon, false);
    check(full.entry == ref,
          def.name + ": full-horizon run entry equals the harness's" +
              (full.entry == ref ? "" : firstDifference(ref, full.entry)));
    const Result fullTraced =
        simulate(def, kGridSeed, def.fullHorizon, true);
    check(fullTraced.digest == full.digest,
          def.name + ": traced full-horizon digest " + fullTraced.digest +
              " equals untraced " + full.digest);

    for (std::uint64_t seed : {kGridSeed, kHeldOutSeed}) {
        const std::string tag =
            def.name + " seed " + std::to_string(seed) + ": ";
        const Result a = simulate(def, seed, def.benchHorizon, false);
        const Result b = simulate(def, seed, def.benchHorizon, false);
        const Result t = simulate(def, seed, def.benchHorizon, true);
        check(a.digest == b.digest,
              tag + "repeated digest " + b.digest + " equals " + a.digest);
        check(t.digest == a.digest,
              tag + "traced digest " + t.digest + " equals " + a.digest);
        if (!pinFile.empty()) {
            const std::string pin = pinnedDigest(pinFile, def.name, seed);
            check(pin == a.digest,
                  tag + "digest " + a.digest + " equals pinned " +
                      (pin.empty() ? "(none)" : pin));
        }
    }
    std::printf("%s: %d check(s) failed\n", def.name.c_str(), failures);
    return failures == 0 ? 0 : 1;
}
