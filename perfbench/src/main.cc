/**
 * @file
 * `perfbench` — end-to-end benchmark over pinned paper grid
 * points. One workload per process, single-threaded.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--pinned FILE] [--digest-only]
 *
 * A run repeats the workload's scenario (set-up, tick loop to the
 * benchmark horizon, digest) until --seconds of host time have passed.
 * Each repetition times its tick loop per simulated second; a loop's
 * time is the sum over those windows of each window's lower median
 * across the repetitions, so a host slowdown that hits one repetition
 * for a few seconds does not move it. The process moves from CPU to
 * CPU as it runs, so a run measures all the CPUs it may use rather
 * than the one the scheduler picked. With --trace 0 it prints
 * the end-to-end metrics, measured untraced, after timing a few
 * set-up-only builds for setup_s. With --trace 1 it
 * alternates untraced and traced repetitions and prints the
 * per-layer metrics: span times from the traced ones, their overhead
 * against the untraced ones, and counts, which must repeat exactly.
 *
 * Every repetition's digest must equal the pinned digest for
 * (workload, seed) when FILE has one, and the run's first digest in
 * any case; a repetition that throws, overruns its host-time limit or
 * mismatches counts as failed. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "scenario.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Host-time limit of one repetition; beyond it the repetition fails. */
constexpr double kRepLimitS = 150.0;
/**
 * Set-up-only builds that open an untraced run; setup_s is their
 * median. Timing them apart from the repetitions keeps one mix of
 * cold (first) and warm heaps in every run, whatever its number of
 * repetitions. A run builds kSetups, then more while they have taken
 * less than kSetupBudgetS in all, up to kMaxSetups.
 */
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 1.0;
/** Simulated time per timed window of a tick loop. */
constexpr TimeNs kWindow = sec(1);
/** Host time the process stays on one CPU before it moves on. */
constexpr auto kCpuPeriod = std::chrono::milliseconds(50);

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string pinned;
    bool digestOnly = false;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** One repetition of the scenario. */
struct Rep
{
    double setupS = 0.0;
    double wallS = 0.0;
    /** Host seconds of each simulated second of the tick loop. */
    std::vector<double> windowS;
    double simS = 0.0;
    std::string digest;
    /** Empty unless the repetition failed. */
    std::string error;
    /** Traced repetitions only. */
    bool traced = false;
    Spans spans;
    /** Simulator counts (repeat exactly across repetitions). */
    std::vector<Metric> counts;
};

/**
 * Visits the CPUs the process may run on, in turn. On a shared host the
 * vCPUs can run at unequal speeds that last for minutes (other tenants'
 * load), and a single-threaded process stays where the scheduler first
 * put it, so one run would measure one vCPU and the next run another.
 * Moving every kCpuPeriod of host time spreads every run over all of
 * them alike. Does nothing until start().
 */
class CpuRotation
{
  public:
    /** Read the CPUs to visit from the process's affinity mask. */
    void
    start()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++) {
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
        }
    }

    /** Move to the next CPU. */
    void
    next()
    {
        moved_ = Clock::now();
        if (cpus_.size() < 2)
            return;
        at_ = (at_ + 1) % cpus_.size();
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[at_], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

    /** Move on when the process has been on this CPU for kCpuPeriod. */
    void
    poll(Clock::time_point now)
    {
        if (now - moved_ >= kCpuPeriod)
            next();
    }

  private:
    std::vector<int> cpus_;
    std::size_t at_ = 0;
    Clock::time_point moved_;
};

CpuRotation cpuRotation;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** The smaller middle value (of two values, the smaller). */
double
lowerMedian(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Simulator-side counts, read through public accessors. */
std::vector<Metric>
simCounts(Scenario &sc, const Spans *spans)
{
    std::vector<Metric> m;
    const std::vector<sim::System *> ks = sc.kernels();
    m.push_back({"sim.ticks", static_cast<double>(ks[0]->tickNo()),
                 "count"});
    if (spans != nullptr) {
        // Only one kernel's workloads are ever wrapped: the native
        // kernel's, or the guests' (a VM host's backing workloads are
        // built inside VirtualMachine), so the counts carry no prefix.
        ChunkCounts c = spans->counts(Layer::kHost);
        c += spans->counts(Layer::kGuest);
        auto add = [&](const char *n, std::uint64_t v) {
            m.push_back({std::string("workload.") + n,
                         static_cast<double>(v), "count"});
        };
        add("accesses", c.accesses);
        add("sample_entries", c.sampleEntries);
        add("touch_entries", c.touchEntries);
        add("write_entries", c.writeEntries);
        add("fault_entries", c.faultEntries);
        add("free_ranges", c.freeRanges);
        add("ops", c.ops);
    }
    auto sumCounter = [&](obs::Counter c) {
        std::uint64_t v = 0;
        for (sim::System *k : ks)
            v += k->cost().counter(c);
        return static_cast<double>(v);
    };
    using C = obs::Counter;
    const std::pair<const char *, C> counters[] = {
        {"mem.faults", C::kFaults},
        {"mem.huge_faults", C::kHugeFaults},
        {"mem.migrated_pages", C::kMigratedPages},
        {"mem.reclaimed_pages", C::kReclaimedPages},
        {"mem.swap_ins", C::kSwapIns},
        {"policy.promotions", C::kPromotions},
        {"policy.splits", C::kSplits},
        {"policy.zeroed_pages", C::kZeroedPages},
        {"policy.deduped_pages", C::kDedupedPages},
    };
    for (const auto &[name, c] : counters)
        m.push_back({name, sumCounter(c), "count"});
    tlb::PerfCounters tlbSum;
    for (sim::System *k : ks) {
        for (auto &proc : k->processes()) {
            const tlb::PerfCounters &c = proc->counters();
            tlbSum.tlbAccesses += c.tlbAccesses;
            tlbSum.tlbMisses += c.tlbMisses;
            tlbSum.dtlbLoadWalkCycles += c.dtlbLoadWalkCycles;
            tlbSum.dtlbStoreWalkCycles += c.dtlbStoreWalkCycles;
        }
    }
    m.push_back({"tlb.accesses",
                 static_cast<double>(tlbSum.tlbAccesses), "count"});
    m.push_back({"tlb.misses", static_cast<double>(tlbSum.tlbMisses),
                 "count"});
    m.push_back({"tlb.miss_ratio", tlbSum.missRate(), "ratio"});
    m.push_back({"tlb.walk_cycles",
                 static_cast<double>(tlbSum.walkCycles()), "cycles"});
    for (unsigned s = 0; s < obs::kSubsysCount; s++) {
        const auto sub = static_cast<obs::Subsys>(s);
        std::int64_t ns = 0;
        for (sim::System *k : ks)
            ns += k->cost().subsysNs(sub);
        m.push_back({std::string("sim_ns.") + obs::subsysName(sub),
                     static_cast<double>(ns), "ns"});
    }
    return m;
}

bool
sameCounts(const std::vector<Metric> &a, const std::vector<Metric> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++) {
        if (a[i].name != b[i].name || a[i].value != b[i].value)
            return false;
    }
    return true;
}

Rep
runRep(const WorkloadDef &def, std::uint64_t seed, bool traced)
{
    Rep rep;
    rep.traced = traced;
    // Outlives the scenario, whose decorators refer to it.
    Spans recorder;
    Spans *spans = traced ? &recorder : nullptr;
    try {
        const auto t0 = Clock::now();
        std::unique_ptr<Scenario> sc = build(def, seed, spans);
        const auto t1 = Clock::now();
        TimeNs windowEnd = kWindow;
        auto mark = t1;
        while (sc->now() < def.benchHorizon && !sc->done()) {
            sc->tick();
            const auto t = Clock::now();
            if (sc->now() >= windowEnd) {
                rep.windowS.push_back(seconds(t - mark));
                mark = t;
                windowEnd = (sc->now() / kWindow + 1) * kWindow;
            }
            cpuRotation.poll(t);
            if (seconds(t - t1) > kRepLimitS) {
                rep.error = "host-time limit reached";
                break;
            }
        }
        const auto t2 = Clock::now();
        if (!rep.error.empty())
            return rep;
        rep.windowS.push_back(seconds(t2 - mark)); // the last, partial one
        rep.setupS = seconds(t1 - t0);
        rep.wallS = seconds(t2 - t1);
        rep.simS = static_cast<double>(sc->now()) / 1e9;
        rep.counts = simCounts(*sc, spans);
        const harness::Json guest = sc->guestState();
        rep.digest = digest(runEntry(def, seed, sc->finish()), guest);
    } catch (const std::exception &e) {
        rep.error = e.what();
    }
    rep.spans = recorder;
    return rep;
}

/**
 * Tick-loop host seconds of @p reps (all of one seed, so their windows
 * match): the sum over windows of each window's lower median.
 */
double
loopWallS(const std::vector<const Rep *> &reps)
{
    double sum = 0.0;
    for (std::size_t w = 0; w < reps.front()->windowS.size(); w++) {
        std::vector<double> v;
        for (const Rep *r : reps)
            v.push_back(r->windowS[w]);
        sum += lowerMedian(std::move(v));
    }
    return sum;
}

/** Per-layer metrics of one traced repetition (times, then counts). */
std::vector<Metric>
layerMetrics(const Rep &rep)
{
    const Spans &sp = rep.spans;
    std::vector<Metric> m;
    auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
    auto calls = [](std::uint64_t n) { return static_cast<double>(n); };
    const Spans::Agg &sys = sp.agg(Slot::kSetupSystem);
    const Spans::Agg &procs = sp.agg(Slot::kSetupProcs);
    const Spans::Agg &tick = sp.agg(Slot::kSimTick);
    const Spans::Agg &vmTick = sp.agg(Slot::kVmTick);
    const Spans::Agg &ksm = sp.agg(Slot::kKsmPeriodic);
    m.push_back({"setup.system_ms", ms(sys.totalNs), "ms"});
    m.push_back({"setup.system.calls", calls(sys.calls), "count"});
    m.push_back({"setup.procs_ms", ms(procs.totalNs), "ms"});
    m.push_back({"setup.procs.calls", calls(procs.calls), "count"});
    m.push_back({"sim.tick.self_ms", ms(tick.selfNs), "ms"});
    m.push_back({"sim.tick.calls", calls(tick.calls), "count"});
    m.push_back({"virt.vm_tick.self_ms", ms(vmTick.selfNs), "ms"});
    m.push_back({"virt.vm_tick.calls", calls(vmTick.calls), "count"});
    m.push_back({"ksm.periodic_ms", ms(ksm.totalNs), "ms"});
    m.push_back({"ksm.periodic.calls", calls(ksm.calls), "count"});

    auto both = [&](Slot s) {
        Spans::Agg a = sp.agg(s, Layer::kHost);
        a += sp.agg(s, Layer::kGuest);
        return a;
    };
    auto addSpan = [&](const std::string &name, const Spans::Agg &a) {
        m.push_back({name + "_ms", ms(a.totalNs), "ms"});
        m.push_back({name + ".calls", calls(a.calls), "count"});
    };
    // Policies run in both kernels of a virtualized workload; the
    // native kernel counts as the host.
    const Slot policySlots[] = {Slot::kPolicyFault, Slot::kPolicyCow,
                                Slot::kPolicyPeriodic,
                                Slot::kPolicyMadvise, Slot::kPolicyExit};
    for (Layer l : {Layer::kHost, Layer::kGuest}) {
        const std::string prefix =
            l == Layer::kHost ? "host." : "guest.";
        for (Slot s : policySlots)
            addSpan(prefix + slotName(s), sp.agg(s, l));
    }
    addSpan(slotName(Slot::kWorkloadNext), both(Slot::kWorkloadNext));

    const double loopSelfMs = ms(sp.loopSelfNs());
    const double wallMs = rep.wallS * 1e3;
    m.push_back({"trace.coverage", ratio(loopSelfMs, wallMs), "ratio"});
    m.push_back({"trace.uncovered_ms", wallMs - loopSelfMs, "ms"});

    const std::uint64_t entries = sp.counts(Layer::kHost).entries() +
                                  sp.counts(Layer::kGuest).entries();
    const Spans::Agg fault = both(Slot::kPolicyFault);
    const Spans::Agg cow = both(Slot::kPolicyCow);
    const Spans::Agg periodic = both(Slot::kPolicyPeriodic);
    const Spans::Agg next = both(Slot::kWorkloadNext);
    auto perCall = [](const Spans::Agg &a) {
        return ratio(static_cast<double>(a.totalNs),
                     static_cast<double>(a.calls));
    };
    m.push_back({"sim.tick.self.ns_per_tick",
                 ratio(static_cast<double>(tick.selfNs),
                       static_cast<double>(tick.calls)),
                 "ns"});
    m.push_back({"sim.engine.ns_per_entry",
                 ratio(static_cast<double>(tick.selfNs + vmTick.selfNs),
                       static_cast<double>(entries)),
                 "ns"});
    m.push_back({"virt.vm_tick.self.ns_per_call",
                 ratio(static_cast<double>(vmTick.selfNs),
                       static_cast<double>(vmTick.calls)),
                 "ns"});
    m.push_back({"policy.fault.ns_per_call", perCall(fault), "ns"});
    m.push_back({"policy.cow.ns_per_call", perCall(cow), "ns"});
    m.push_back({"policy.periodic.ns_per_call", perCall(periodic), "ns"});
    m.push_back({"workload.next.ns_per_call", perCall(next), "ns"});
    m.push_back({"workload.next.ns_per_entry",
                 ratio(static_cast<double>(next.totalNs),
                       static_cast<double>(entries)),
                 "ns"});
    m.insert(m.end(), rep.counts.begin(), rep.counts.end());
    return m;
}

/** Median of each metric over @p per_rep (all lists share names). */
std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>> &per_rep)
{
    std::vector<Metric> out = per_rep.front();
    for (std::size_t i = 0; i < out.size(); i++) {
        std::vector<double> v;
        for (const auto &r : per_rep)
            v.push_back(r[i].value);
        out[i].value = median(std::move(v));
    }
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--pinned FILE] "
                 "[--digest-only]\nworkloads:",
                 why);
    for (const WorkloadDef &d : workloads())
        std::fprintf(stderr, " %s", d.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--pinned")
                o.pinned = value();
            else if (a == "--digest-only")
                o.digestOnly = true;
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

harness::Json
metricsJson(const std::vector<Metric> &metrics)
{
    harness::Json out = harness::Json::object();
    for (const Metric &m : metrics) {
        harness::Json one = harness::Json::object();
        one.set("value", harness::Json(m.value));
        one.set("unit", harness::Json(m.unit));
        out.set(m.name, std::move(one));
    }
    return out;
}

int
run(const Options &opt)
{
    const WorkloadDef *def = findWorkload(opt.workload);
    if (def == nullptr)
        usage(("unknown workload " + opt.workload).c_str());
    const std::string pinned =
        opt.pinned.empty()
            ? std::string()
            : pinnedDigest(opt.pinned, def->name, opt.seed);

    if (opt.digestOnly) {
        const Rep rep = runRep(*def, opt.seed, false);
        if (!rep.error.empty()) {
            std::fprintf(stderr, "perfbench: %s\n", rep.error.c_str());
            return 1;
        }
        std::printf("%s %llu %s\n", def->name.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    rep.digest.c_str());
        return 0;
    }

    std::printf("workload %s (%s/%s), seed %llu, horizon %.0f s "
                "simulated, digest %s\n",
                def->name.c_str(), def->point.experiment.c_str(),
                def->point.label().c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<double>(def->benchHorizon) / 1e9,
                pinned.empty() ? "not pinned for this seed"
                               : pinned.c_str());

    // Only timed runs move; --digest-only processes run side by side.
    cpuRotation.start();
    const auto start = Clock::now();
    std::vector<double> setup;
    double setupSum = 0.0;
    while (!opt.trace &&
           (setup.size() < kSetups ||
            (setup.size() < kMaxSetups && setupSum < kSetupBudgetS))) {
        cpuRotation.next();
        const auto t0 = Clock::now();
        const std::unique_ptr<Scenario> sc = build(*def, opt.seed, nullptr);
        setup.push_back(seconds(Clock::now() - t0));
        setupSum += setup.back();
    }
    std::vector<Rep> reps;
    std::uint64_t failed = 0;
    std::string expect = pinned;
    std::vector<Metric> tracedCounts;
    std::size_t windows = 0;
    // Start another repetition while it is expected to end no more
    // than half a repetition past --seconds; traced runs end on a pair.
    double lastRepS = 0.0;
    double peakRss = 0.0;
    while (reps.empty() ||
           seconds(Clock::now() - start) + lastRepS / 2 < opt.seconds ||
           (opt.trace && reps.size() % 2 == 1)) {
        const bool traced = opt.trace && reps.size() % 2 == 1;
        const auto repStart = Clock::now();
        reps.push_back(runRep(*def, opt.seed, traced));
        // Later repetitions reuse a heap the first one grew, so only
        // the first one's high-water mark is the workload's own.
        if (reps.size() == 1)
            peakRss = peakRssMb();
        lastRepS = seconds(Clock::now() - repStart);
        Rep &rep = reps.back();
        if (rep.error.empty()) {
            if (expect.empty())
                expect = rep.digest;
            if (rep.digest != expect)
                rep.error = "digest " + rep.digest + " != " + expect;
            else if (windows == 0)
                windows = rep.windowS.size();
            else if (rep.windowS.size() != windows)
                rep.error = "timed windows differ between repetitions";
        }
        if (rep.error.empty() && traced) {
            if (tracedCounts.empty())
                tracedCounts = rep.counts;
            else if (!sameCounts(rep.counts, tracedCounts))
                rep.error = "counts differ between traced repetitions";
        }
        if (!rep.error.empty())
            failed++;
        std::printf("rep %zu%s: setup %.4f s, wall %.4f s, sim %.1f s, "
                    "%s\n",
                    reps.size(), traced ? " traced" : "", rep.setupS,
                    rep.wallS, rep.simS,
                    rep.error.empty() ? rep.digest.c_str()
                                      : rep.error.c_str());
        std::fflush(stdout);
    }

    std::vector<const Rep *> untraced, traced;
    std::vector<std::vector<Metric>> layers;
    for (const Rep &r : reps) {
        if (!r.error.empty())
            continue;
        if (r.traced) {
            traced.push_back(&r);
            layers.push_back(layerMetrics(r));
        } else {
            untraced.push_back(&r);
        }
    }
    std::vector<Metric> metrics;
    if (!opt.trace && !untraced.empty()) {
        const double wall = loopWallS(untraced);
        metrics = {
            {"wall_s", wall, "s"},
            {"setup_s", median(setup), "s"},
            {"sim_s_per_s", ratio(untraced.front()->simS, wall), "1/s"},
            {"peak_rss_mb", peakRss, "MB"},
        };
    } else if (opt.trace && !traced.empty() && !untraced.empty()) {
        metrics = medianMetrics(layers);
        metrics.push_back(
            {"trace.overhead_pct",
             (loopWallS(traced) / loopWallS(untraced) - 1.0) * 100.0,
             "%"});
    }
    const bool correct = failed == 0 && !metrics.empty();

    harness::Json out = harness::Json::object();
    out.set("correct", harness::Json(correct));
    out.set("attempted",
            harness::Json(static_cast<std::uint64_t>(reps.size())));
    out.set("failed", harness::Json(failed));
    out.set("metrics", metricsJson(metrics));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
