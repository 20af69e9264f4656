#include "spans.hh"

namespace perfbench {

namespace {

/** Forwards every hook to the wrapped policy, timing the hot ones. */
class TracedPolicy : public policy::HugePagePolicy
{
  public:
    TracedPolicy(std::unique_ptr<policy::HugePagePolicy> inner,
                 Spans &spans, Layer layer)
        : inner_(std::move(inner)), spans_(spans), layer_(layer)
    {}

    std::string name() const override { return inner_->name(); }
    void attach(sim::System &sys) override { inner_->attach(sys); }
    void
    onProcessStart(sim::System &sys, sim::Process &proc) override
    {
        inner_->onProcessStart(sys, proc);
    }
    void
    onProcessExit(sim::System &sys, sim::Process &proc) override
    {
        Span s(&spans_, Slot::kPolicyExit, layer_);
        inner_->onProcessExit(sys, proc);
    }
    policy::FaultOutcome
    onFault(sim::System &sys, sim::Process &proc, Vpn vpn) override
    {
        Span s(&spans_, Slot::kPolicyFault, layer_);
        return inner_->onFault(sys, proc, vpn);
    }
    TimeNs
    onCowFault(sim::System &sys, sim::Process &proc, Vpn vpn) override
    {
        Span s(&spans_, Slot::kPolicyCow, layer_);
        return inner_->onCowFault(sys, proc, vpn);
    }
    void
    periodic(sim::System &sys) override
    {
        Span s(&spans_, Slot::kPolicyPeriodic, layer_);
        inner_->periodic(sys);
    }
    std::uint64_t promotions() const override
    {
        return inner_->promotions();
    }
    void
    onMadviseFree(sim::System &sys, sim::Process &proc, Addr start,
                  std::uint64_t bytes) override
    {
        Span s(&spans_, Slot::kPolicyMadvise, layer_);
        inner_->onMadviseFree(sys, proc, start, bytes);
    }
    void save(snap::Writer &w) const override { inner_->save(w); }
    void load(snap::Reader &r) override { inner_->load(r); }

  private:
    std::unique_ptr<policy::HugePagePolicy> inner_;
    Spans &spans_;
    Layer layer_;
};

/** Forwards to the wrapped workload; times next() and counts chunks. */
class TracedWorkload : public workload::Workload
{
  public:
    TracedWorkload(std::unique_ptr<workload::Workload> inner,
                   Spans &spans, Layer layer)
        : inner_(std::move(inner)), spans_(spans), layer_(layer)
    {}

    std::string name() const override { return inner_->name(); }
    void init(sim::Process &proc) override { inner_->init(proc); }
    void
    next(sim::Process &proc, TimeNs max_compute,
         workload::WorkChunk &chunk) override
    {
        {
            Span s(&spans_, Slot::kWorkloadNext, layer_);
            inner_->next(proc, max_compute, chunk);
        }
        spans_.counts(layer_).add(chunk);
    }
    bool runsToCompletion() const override
    {
        return inner_->runsToCompletion();
    }
    void save(snap::Writer &w) const override { inner_->save(w); }
    void load(snap::Reader &r) override { inner_->load(r); }

  private:
    std::unique_ptr<workload::Workload> inner_;
    Spans &spans_;
    Layer layer_;
};

} // namespace

const char *
slotName(Slot s)
{
    switch (s) {
      case Slot::kSetupSystem: return "setup.system";
      case Slot::kSetupProcs: return "setup.procs";
      case Slot::kSimTick: return "sim.tick";
      case Slot::kVmTick: return "virt.vm_tick";
      case Slot::kKsmPeriodic: return "ksm.periodic";
      case Slot::kPolicyFault: return "policy.fault";
      case Slot::kPolicyCow: return "policy.cow";
      case Slot::kPolicyPeriodic: return "policy.periodic";
      case Slot::kPolicyMadvise: return "policy.madvise";
      case Slot::kPolicyExit: return "policy.exit";
      case Slot::kWorkloadNext: return "workload.next";
    }
    return "?";
}

void
ChunkCounts::add(const workload::WorkChunk &c)
{
    accesses += c.accessCount;
    sampleEntries += c.sample.size();
    touchEntries += c.touches.size();
    writeEntries += c.writes.size();
    faultEntries += c.faults.size();
    freeRanges += c.frees.size();
    ops += c.opsCompleted;
}

ChunkCounts &
ChunkCounts::operator+=(const ChunkCounts &o)
{
    accesses += o.accesses;
    sampleEntries += o.sampleEntries;
    touchEntries += o.touchEntries;
    writeEntries += o.writeEntries;
    faultEntries += o.faultEntries;
    freeRanges += o.freeRanges;
    ops += o.ops;
    return *this;
}

void
Spans::begin(Slot s, Layer l)
{
    stack_.push_back({&aggs_[static_cast<unsigned>(s)]
                            [static_cast<unsigned>(l)],
                      std::chrono::steady_clock::now(), 0});
}

void
Spans::end()
{
    const auto stop = std::chrono::steady_clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            stop - open.start)
            .count();
    open.agg->totalNs += dur;
    open.agg->selfNs += dur - open.childNs;
    open.agg->calls++;
    if (!stack_.empty())
        stack_.back().childNs += dur;
}

std::int64_t
Spans::loopSelfNs() const
{
    std::int64_t sum = 0;
    for (unsigned s = 0; s < kSlotCount; s++) {
        const auto slot = static_cast<Slot>(s);
        if (slot == Slot::kSetupSystem || slot == Slot::kSetupProcs)
            continue;
        for (const Agg &a : aggs_[s])
            sum += a.selfNs;
    }
    return sum;
}

std::unique_ptr<policy::HugePagePolicy>
traced(std::unique_ptr<policy::HugePagePolicy> pol, Spans *spans,
       Layer layer)
{
    if (spans == nullptr)
        return pol;
    return std::make_unique<TracedPolicy>(std::move(pol), *spans,
                                          layer);
}

std::unique_ptr<workload::Workload>
traced(std::unique_ptr<workload::Workload> wl, Spans *spans,
       Layer layer)
{
    if (spans == nullptr)
        return wl;
    return std::make_unique<TracedWorkload>(std::move(wl), *spans,
                                            layer);
}

} // namespace perfbench
