#include "scenario.hh"

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "harness/runner.hh"
#include "harness/seed.hh"
#include "virt/vm.hh"

namespace perfbench {

namespace {

using Params = std::vector<std::pair<std::string, std::string>>;

harness::RunPoint
point(std::string experiment, std::uint64_t index, Params params)
{
    harness::RunPoint p;
    p.experiment = std::move(experiment);
    p.index = index;
    p.params = std::move(params);
    return p;
}

/** Fills the point's scalars (and metrics) at the end of the run. */
using Finisher = std::function<void(harness::RunOutput &)>;

class NativeScenario : public Scenario
{
  public:
    NativeScenario(std::unique_ptr<sim::System> sys, Spans *spans)
        : sys_(std::move(sys)), spans_(spans)
    {}

    void
    tick() override
    {
        Span s(spans_, Slot::kSimTick);
        sys_->tick();
    }
    bool
    done() override
    {
        for (auto &proc : sys_->processes()) {
            if (proc->workload().runsToCompletion() &&
                !proc->finished())
                return false;
        }
        return true;
    }
    TimeNs now() const override { return sys_->now(); }
    std::vector<sim::System *> kernels() override
    {
        return {sys_.get()};
    }
    harness::RunOutput
    finish() override
    {
        harness::RunOutput out;
        finisher(out);
        out.simTimeNs = sys_->now();
        out.captureObs(*sys_);
        out.metrics = std::move(sys_->metrics());
        return out;
    }

    Finisher finisher;

  private:
    std::unique_ptr<sim::System> sys_;
    Spans *spans_;
};

class VirtScenario : public Scenario
{
  public:
    VirtScenario(std::unique_ptr<virt::VirtualSystem> vs, Spans *spans,
                 bool until_guests_done)
        : vs_(std::move(vs)), spans_(spans),
          until_guests_done_(until_guests_done)
    {}

    virt::VirtualSystem &vs() { return *vs_; }

    /**
     * Untraced: VirtualSystem::tick itself. Traced: its public calls in
     * its order, one span each (perfbench_selftest checks that both
     * give one digest).
     */
    void
    tick() override
    {
        if (spans_ == nullptr) {
            vs_->tick();
            return;
        }
        for (auto &vm : vs_->vms()) {
            Span s(spans_, Slot::kVmTick);
            vm->tick();
        }
        if (ksm::KsmDaemon *ksm = vs_->hostKsm()) {
            Span s(spans_, Slot::kKsmPeriodic);
            ksm->periodic(vs_->host(),
                          vs_->host().config().tickQuantum);
        }
        Span s(spans_, Slot::kSimTick);
        vs_->host().tick();
    }
    /** VirtualSystem::runUntilGuestsDone's stop test (run(): never). */
    bool
    done() override
    {
        if (!until_guests_done_)
            return false;
        for (auto &vm : vs_->vms()) {
            if (!vm->allGuestWorkDone())
                return false;
        }
        return true;
    }
    TimeNs now() const override { return vs_->now(); }
    std::vector<sim::System *>
    kernels() override
    {
        std::vector<sim::System *> out{&vs_->host()};
        for (auto &vm : vs_->vms())
            out.push_back(&vm->guest());
        return out;
    }
    harness::RunOutput
    finish() override
    {
        harness::RunOutput out;
        finisher(out);
        out.captureObs(vs_->host());
        return out;
    }
    harness::Json
    guestState() override
    {
        harness::Json vms = harness::Json::array();
        for (auto &vm : vs_->vms()) {
            harness::Json jv = harness::Json::object();
            jv.set("name", harness::Json(vm->name()));
            jv.set("cost", harness::costToJson(vm->guest().cost()));
            harness::Json procs = harness::Json::array();
            for (auto &proc : vm->guest().processes()) {
                const tlb::PerfCounters &c = proc->counters();
                harness::Json jp = harness::Json::object();
                jp.set("name", harness::Json(proc->name()));
                jp.set("faults", harness::Json(proc->pageFaults()));
                jp.set("ops", harness::Json(proc->opsCompleted()));
                jp.set("finished", harness::Json(proc->finished()));
                jp.set("runtime_ns",
                       harness::Json(static_cast<std::int64_t>(
                           proc->runtime())));
                jp.set("tlb_accesses", harness::Json(c.tlbAccesses));
                jp.set("tlb_misses", harness::Json(c.tlbMisses));
                jp.set("walk_cycles", harness::Json(c.walkCycles()));
                jp.set("cpu_cycles", harness::Json(c.cpuClkUnhalted));
                procs.push(std::move(jp));
            }
            jv.set("processes", std::move(procs));
            vms.push(std::move(jv));
        }
        harness::Json out = harness::Json::object();
        out.set("host_now_ns", harness::Json(static_cast<std::int64_t>(
                                   vs_->now())));
        out.set("vms", std::move(vms));
        return out;
    }

    Finisher finisher;

  private:
    std::unique_ptr<virt::VirtualSystem> vs_;
    Spans *spans_;
    bool until_guests_done_;
};

sim::SystemConfig
baseConfig(std::uint64_t memory_bytes, std::uint64_t seed)
{
    sim::SystemConfig cfg;
    cfg.memoryBytes = memory_bytes;
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<policy::HugePagePolicy>
hawkEyeG(Spans *spans, Layer layer)
{
    return traced(std::make_unique<core::HawkEyePolicy>(), spans,
                  layer);
}

std::unique_ptr<policy::HugePagePolicy>
linux2Mb(Spans *spans, Layer layer)
{
    return traced(std::make_unique<policy::LinuxThpPolicy>(), spans,
                  layer);
}

/** fig8_heterogeneous: workload=cg.D policy=HawkEye-G sensitive-first. */
std::unique_ptr<Scenario>
buildHeteroCg(std::uint64_t seed, Spans *spans)
{
    std::unique_ptr<sim::System> sys;
    {
        Span s(spans, Slot::kSetupSystem);
        sys = std::make_unique<sim::System>(
            baseConfig(GiB(8), seed));
        sys->setPolicy(hawkEyeG(spans, Layer::kHost));
        sys->fragmentMemoryMovable(1.0, 64);
        sys->costs().promotionsPerSec = 8.0;
    }
    sim::Process *sensitive = nullptr;
    {
        Span s(spans, Slot::kSetupProcs);
        const workload::Scale sc{12};
        auto cg = workload::makeNpb("cg", sys->rng().fork(), sc, 120);
        sensitive = &sys->addProcess(
            "cg.D", traced(std::move(cg), spans, Layer::kHost));
        auto redis =
            workload::makeRedisLight(sys->rng().fork(), sc, 1e6);
        sys->addProcess("redis",
                        traced(std::move(redis), spans, Layer::kHost));
    }
    auto sc = std::make_unique<NativeScenario>(std::move(sys), spans);
    sc->finisher = [sensitive](harness::RunOutput &out) {
        out.scalar("sensitive_runtime_s",
                   static_cast<double>(sensitive->runtime()) / 1e9);
        out.scalar("sensitive_mmu_pct", sensitive->mmuOverheadPct());
    };
    return sc;
}

/** fig9_virtualization: workload=cg.D config=HawkEye-host. */
std::unique_ptr<Scenario>
buildNestedCg(std::uint64_t seed, Spans *spans)
{
    std::unique_ptr<virt::VirtualSystem> vs;
    {
        Span s(spans, Slot::kSetupSystem);
        vs = std::make_unique<virt::VirtualSystem>(
            baseConfig(GiB(12), seed), hawkEyeG(spans, Layer::kHost));
        vs->host().fragmentMemoryMovable(1.0, 48);
        vs->host().costs().promotionsPerSec = 10.0;
    }
    const workload::Scale s16{16};
    const std::uint64_t sub = seed ^ 0x5bf0363e49af17c1ull;

    virt::VirtualMachine *vm1 = nullptr;
    {
        Span s(spans, Slot::kSetupSystem);
        virt::VmOptions ropts;
        ropts.guestMemBytes = GiB(3);
        ropts.seed = 1;
        vm1 = &vs->addVm("vm-redis", ropts,
                         linux2Mb(spans, Layer::kGuest));
    }
    {
        Span s(spans, Slot::kSetupProcs);
        vm1->addGuestProcess(
            "redis", traced(workload::makeRedisLight(Rng(sub + 1), s16,
                                                     1e6),
                            spans, Layer::kGuest));
    }
    virt::VirtualMachine *vm2 = nullptr;
    {
        Span s(spans, Slot::kSetupSystem);
        virt::VmOptions aopts;
        aopts.guestMemBytes = GiB(4);
        aopts.seed = 2;
        vm2 = &vs->addVm("vm-app", aopts,
                         linux2Mb(spans, Layer::kGuest));
        vm2->guest().fragmentMemoryMovable(1.0, 48);
        vm2->guest().costs().promotionsPerSec = 10.0;
    }
    sim::Process *app = nullptr;
    {
        Span s(spans, Slot::kSetupProcs);
        app = &vm2->addGuestProcess(
            "cg.D", traced(workload::makeNpb("cg", Rng(sub + 2),
                                             workload::Scale{6}, 90),
                           spans, Layer::kGuest));
    }
    auto sc =
        std::make_unique<VirtScenario>(std::move(vs), spans, true);
    sc->finisher = [app](harness::RunOutput &out) {
        out.scalar("app_runtime_s",
                   static_cast<double>(app->runtime()) / 1e9);
        out.scalar("single_vm", 0.0);
    };
    return sc;
}

/** A serving key-value store that loads, deletes 70% and serves. */
workload::KvConfig
overcommitKv(double pause_sec, double load_ops, double serve_ops)
{
    workload::KvConfig kc;
    kc.arenaBytes = GiB(4);
    kc.servesForever = true;
    workload::KvPhase wait;
    wait.type = workload::KvPhase::Type::kPause;
    wait.durationSec = pause_sec;
    workload::KvPhase load;
    load.type = workload::KvPhase::Type::kInsert;
    load.count = 650'000;
    load.opsPerSec = load_ops;
    workload::KvPhase del;
    del.type = workload::KvPhase::Type::kDelete;
    del.fraction = 0.7;
    del.clusterRun = 64;
    workload::KvPhase serve;
    serve.type = workload::KvPhase::Type::kServe;
    serve.durationSec = 1e6;
    serve.opsPerSec = serve_ops;
    if (pause_sec > 0.0)
        kc.phases = {wait, load, del, serve};
    else
        kc.phases = {load, del, serve};
    return kc;
}

/** fig11_overcommit: mode=none. */
std::unique_ptr<Scenario>
buildOvercommitSwap(std::uint64_t seed, Spans *spans)
{
    std::unique_ptr<virt::VirtualSystem> vs;
    {
        Span s(spans, Slot::kSetupSystem);
        sim::SystemConfig host_cfg = baseConfig(GiB(6), seed);
        host_cfg.costs.zeroDaemonPagesPerSec = 100'000.0;
        vs = std::make_unique<virt::VirtualSystem>(
            host_cfg, linux2Mb(spans, Layer::kHost));
        vs->host().enableSwap(true);
    }
    const std::uint64_t sub = seed ^ 0x9d1c37fb824e05a7ull;
    virt::VmOptions opts;
    opts.guestMemBytes = GiB(3);

    // Each VM: the guest system, then its one process.
    auto addVm = [&](const char *vm_name, std::uint64_t vm_seed,
                     const char *proc_name,
                     std::unique_ptr<workload::Workload> wl) {
        virt::VirtualMachine *vm = nullptr;
        {
            Span s(spans, Slot::kSetupSystem);
            opts.seed = vm_seed;
            vm = &vs->addVm(vm_name, opts,
                            linux2Mb(spans, Layer::kGuest));
        }
        Span s(spans, Slot::kSetupProcs);
        return &vm->addGuestProcess(
            proc_name, traced(std::move(wl), spans, Layer::kGuest));
    };
    sim::Process *redis = addVm(
        "vm-redis", 1, "redis",
        std::make_unique<workload::KeyValueStoreWorkload>(
            "redis", overcommitKv(0.0, 150'000, 50'000),
            Rng(sub + 1)));
    sim::Process *mongo = addVm(
        "vm-mongo", 2, "mongo",
        std::make_unique<workload::KeyValueStoreWorkload>(
            "mongo", overcommitKv(60.0, 120'000, 40'000),
            Rng(sub + 2)));
    workload::StreamConfig pr;
    pr.footprintBytes = GiB(3) / 2;
    pr.wssBytes = GiB(1);
    pr.zipfS = 0.4;
    pr.accessesPerSec = 2.5e6;
    pr.workSeconds = 150.0;
    sim::Process *pagerank = addVm(
        "vm-pagerank", 3, "pagerank",
        std::make_unique<workload::StreamWorkload>("pagerank", pr,
                                                   Rng(sub + 3)));

    auto sc =
        std::make_unique<VirtScenario>(std::move(vs), spans, false);
    VirtScenario *raw = sc.get();
    sc->finisher = [raw, redis, mongo,
                    pagerank](harness::RunOutput &out) {
        auto kops = [](sim::Process *p, double active_secs) {
            return static_cast<double>(p->opsCompleted()) /
                   active_secs / 1e3;
        };
        out.scalar("redis_kops", kops(redis, 200.0));
        out.scalar("mongo_kops", kops(mongo, 140.0));
        out.scalar("pagerank_s",
                   pagerank->finished()
                       ? static_cast<double>(pagerank->runtime()) / 1e9
                       : 999.0);
        out.scalar("host_swap_outs",
                   static_cast<double>(
                       raw->vs().host().swap().totalSwappedOut()));
    };
    return sc;
}

/** fig1_redis_rss: policy=HawkEye-G (1/8 scale). */
std::unique_ptr<Scenario>
buildRedisBloat(std::uint64_t seed, Spans *spans)
{
    constexpr std::uint64_t kScale = 8;
    std::unique_ptr<sim::System> sys;
    {
        Span s(spans, Slot::kSetupSystem);
        sim::SystemConfig cfg = baseConfig(GiB(48) / kScale, seed);
        cfg.metricsPeriod = msec(500);
        sys = std::make_unique<sim::System>(cfg);
        sys->setPolicy(hawkEyeG(spans, Layer::kHost));
    }
    sim::Process *proc = nullptr;
    const workload::KeyValueStoreWorkload *kv = nullptr;
    {
        Span s(spans, Slot::kSetupProcs);
        workload::KvConfig kc;
        kc.arenaBytes = GiB(13);
        workload::KvPhase p1;
        p1.type = workload::KvPhase::Type::kInsert;
        p1.count = 11'000'000 / kScale;
        p1.valueBytes = 4096;
        p1.opsPerSec = 100'000;
        workload::KvPhase p2;
        p2.type = workload::KvPhase::Type::kDelete;
        p2.fraction = 0.80;
        workload::KvPhase gap;
        gap.type = workload::KvPhase::Type::kServe;
        gap.durationSec = 150.0;
        gap.opsPerSec = 10'000;
        workload::KvPhase p3;
        p3.type = workload::KvPhase::Type::kInsert;
        p3.count = 17'000 / kScale * 1.05;
        p3.valueBytes = kHugePageSize;
        p3.opsPerSec = 50;
        kc.phases = {p1, p2, gap, p3};
        auto wl = std::make_unique<workload::KeyValueStoreWorkload>(
            "redis", kc, sys->rng().fork());
        kv = wl.get();
        proc = &sys->addProcess(
            "redis", traced(std::move(wl), spans, Layer::kHost));
    }
    auto sc = std::make_unique<NativeScenario>(std::move(sys), spans);
    sc->finisher = [proc, kv,
                    sys = sc->kernels()[0]](harness::RunOutput &out) {
        const TimeSeries &rss = sys->metrics().series("p1.rss_pages");
        out.scalar("oom", proc->oomKilled() ? 1.0 : 0.0);
        out.scalar("oom_time_s",
                   static_cast<double>(proc->finishedAt()) / 1e9);
        out.scalar("useful_gb", static_cast<double>(kv->liveBytes()) /
                                    (1ull << 30));
        out.scalar("peak_rss_gb",
                   rss.peak() * kPageSize / (1ull << 30));
        out.scalar("completed",
                   proc->finished() && !proc->oomKilled() ? 1.0 : 0.0);
    };
    return sc;
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"hetero-cg",
         point("fig8_heterogeneous", 14,
               {{"workload", "cg.D"},
                {"policy", "HawkEye-G"},
                {"order", "sensitive-first"}}),
         sec(1200), sec(20)},
        {"nested-cg",
         point("fig9_virtualization", 7,
               {{"workload", "cg.D"}, {"config", "HawkEye-host"}}),
         sec(2000), sec(20)},
        {"overcommit-swap",
         point("fig11_overcommit", 0, {{"mode", "none"}}), sec(200),
         sec(75)},
        {"redis-bloat",
         point("fig1_redis_rss", 2, {{"policy", "HawkEye-G"}}),
         sec(700), sec(700)},
    };
    return defs;
}

const WorkloadDef *
findWorkload(std::string_view name)
{
    for (const WorkloadDef &d : workloads()) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

std::unique_ptr<Scenario>
build(const WorkloadDef &def, std::uint64_t master_seed, Spans *spans)
{
    const std::uint64_t seed = harness::deriveSeed(
        master_seed, def.point.experiment, def.point.index);
    if (def.name == "hetero-cg")
        return buildHeteroCg(seed, spans);
    if (def.name == "nested-cg")
        return buildNestedCg(seed, spans);
    if (def.name == "overcommit-swap")
        return buildOvercommitSwap(seed, spans);
    return buildRedisBloat(seed, spans);
}

void
runTo(Scenario &sc, TimeNs horizon)
{
    while (sc.now() < horizon && !sc.done())
        sc.tick();
}

std::string
runEntry(const WorkloadDef &def, std::uint64_t master_seed,
         harness::RunOutput output)
{
    harness::Report report;
    report.masterSeed = master_seed;
    harness::RunRecord rec;
    rec.point = def.point;
    rec.seed = harness::deriveSeed(master_seed, def.point.experiment,
                                   def.point.index);
    rec.output = std::move(output);
    report.runs.push_back(std::move(rec));
    return report.toJson()["runs"].at(0).dump();
}

std::string
digest(const std::string &run_entry, const harness::Json &guest_state)
{
    const std::uint64_t h =
        harness::fnv1a(run_entry + "\n" + guest_state.dump());
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
pinnedDigest(const std::string &path, const std::string &workload,
             std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        HS_FATAL("cannot read pinned digests: ", path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, digest;
        std::uint64_t s = 0;
        if ((ls >> name >> s >> digest) && name == workload && s == seed)
            return digest;
    }
    return {};
}

} // namespace perfbench
