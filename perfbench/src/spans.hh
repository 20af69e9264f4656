/**
 * @file
 * Per-layer wall-clock spans, timed from outside the simulator.
 *
 * The benchmark puts a span around every public call it makes into a
 * layer (System::tick, VirtualMachine::tick, KsmDaemon::periodic, the
 * setup calls) and wraps every policy and workload it creates in a
 * forwarding decorator that opens a span around each hook. Spans nest
 * on a stack; a span's self time is its duration minus the part its
 * child spans cover, so the self times of one run add up to the wall
 * time its top-level spans cover.
 *
 * Only aggregates are kept (total, self, calls per slot): a traced
 * run makes millions of spans, and the benchmark reports sums.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hawksim.hh"

namespace perfbench {

using namespace hawksim;

/** Which kernel a policy or workload belongs to. */
enum class Layer : std::uint8_t
{
    kHost,  //!< the kernel that owns physical memory (native or host)
    kGuest, //!< a guest kernel inside a VM
};

constexpr unsigned kLayerCount = 2;

/**
 * Span slots. Each is kept once per Layer; only the policy and
 * workload slots are ever opened under Layer::kGuest.
 */
enum class Slot : std::uint8_t
{
    kSetupSystem,
    kSetupProcs,
    kSimTick,
    kVmTick,
    kKsmPeriodic,
    kPolicyFault,
    kPolicyCow,
    kPolicyPeriodic,
    kPolicyMadvise,
    kPolicyExit,
    kWorkloadNext,
};

constexpr unsigned kSlotCount = 11;

/** Metric name of a slot, without layer prefix ("policy.fault"). */
const char *slotName(Slot s);

/** Work that workload decorators count from each chunk they return. */
struct ChunkCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t sampleEntries = 0;
    std::uint64_t touchEntries = 0;
    std::uint64_t writeEntries = 0;
    std::uint64_t faultEntries = 0;
    std::uint64_t freeRanges = 0;
    std::uint64_t ops = 0;

    void add(const workload::WorkChunk &c);
    ChunkCounts &operator+=(const ChunkCounts &o);
    /** Chunk entries the engine iterates (sample+touch+write+fault). */
    std::uint64_t
    entries() const
    {
        return sampleEntries + touchEntries + writeEntries +
               faultEntries;
    }
};

/** Aggregated span and count state of one traced run. */
class Spans
{
  public:
    struct Agg
    {
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
        std::uint64_t calls = 0;

        Agg &
        operator+=(const Agg &o)
        {
            totalNs += o.totalNs;
            selfNs += o.selfNs;
            calls += o.calls;
            return *this;
        }
    };

    void begin(Slot s, Layer l);
    void end();

    const Agg &agg(Slot s, Layer l = Layer::kHost) const
    {
        return aggs_[static_cast<unsigned>(s)]
                    [static_cast<unsigned>(l)];
    }
    ChunkCounts &counts(Layer l)
    {
        return counts_[static_cast<unsigned>(l)];
    }
    const ChunkCounts &counts(Layer l) const
    {
        return counts_[static_cast<unsigned>(l)];
    }
    /** Sum of self times of every slot except the setup ones. */
    std::int64_t loopSelfNs() const;

  private:
    struct Open
    {
        Agg *agg;
        std::chrono::steady_clock::time_point start;
        std::int64_t childNs;
    };

    std::array<std::array<Agg, kLayerCount>, kSlotCount> aggs_{};
    std::array<ChunkCounts, kLayerCount> counts_{};
    std::vector<Open> stack_;
};

/** RAII span; a null recorder makes it a no-op (untraced runs). */
class Span
{
  public:
    Span(Spans *spans, Slot s, Layer l = Layer::kHost) : spans_(spans)
    {
        if (spans_ != nullptr)
            spans_->begin(s, l);
    }
    ~Span()
    {
        if (spans_ != nullptr)
            spans_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans *spans_;
};

/**
 * Wrap @p pol in a forwarding decorator timing its hooks into
 * @p spans under @p layer; returns @p pol unchanged when @p spans is
 * null.
 */
std::unique_ptr<policy::HugePagePolicy>
traced(std::unique_ptr<policy::HugePagePolicy> pol, Spans *spans,
       Layer layer);

/** Same for a workload: times next() and counts its chunks. */
std::unique_ptr<workload::Workload>
traced(std::unique_ptr<workload::Workload> wl, Spans *spans,
       Layer layer);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
