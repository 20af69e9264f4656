/**
 * @file
 * The benchmark's workloads: four pinned paper grid points, rebuilt
 * through the simulator's public API.
 *
 * Each workload names the `hawksim_bench` grid point it reproduces
 * (experiment, grid index, axis values) and builds the same System or
 * VirtualSystem that point's run function builds, in the same order,
 * so that at the point's full horizon and master seed 42 the canonical
 * run entry is byte-identical to the harness's (checked by
 * perfbench_selftest). The benchmark itself runs a shorter, pinned
 * horizon.
 *
 * When given a Spans recorder, a scenario wraps every policy and
 * workload it creates in the tracing decorators and opens spans around
 * its setup calls and around each public tick call. A traced
 * VirtualSystem's tick is decomposed into its public parts (each
 * VirtualMachine::tick, the host KSM daemon, the host System::tick), in
 * VirtualSystem::tick's order, so each gets its own span; an untraced
 * one calls VirtualSystem::tick itself.
 */

#ifndef PERFBENCH_SCENARIO_HH
#define PERFBENCH_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/json.hh"
#include "spans.hh"

namespace perfbench {

/** One benchmark workload: a pinned grid point and its horizons. */
struct WorkloadDef
{
    std::string name;
    /** The grid point (`hawksim_bench --filter "<experiment>/<label>"`). */
    harness::RunPoint point;
    /** The point's own run limit (simulated). */
    TimeNs fullHorizon;
    /** The shorter horizon the benchmark measures (simulated). */
    TimeNs benchHorizon;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<WorkloadDef> &workloads();
/** Lookup by name; null when unknown. */
const WorkloadDef *findWorkload(std::string_view name);

/** A built grid point, ready to tick. */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    /** Advance the simulation by one tick. */
    virtual void tick() = 0;
    /** Would the point's run loop stop now (all its work is done)? */
    virtual bool done() = 0;
    /** Native clock, or the host clock of a virtualized point. */
    virtual TimeNs now() const = 0;
    /** Native or host system first, then each guest system. */
    virtual std::vector<sim::System *> kernels() = 0;
    /**
     * End-of-run output, as the grid point's run function returns it.
     * Moves the metrics out; call once, after the last tick.
     */
    virtual harness::RunOutput finish() = 0;
    /**
     * Guest-side state the canonical run entry omits (virtualized
     * points report only host cost): each guest's cost block, each
     * guest process's faults, ops, runtime and TLB counters, and the
     * host clock. Null for native points.
     */
    virtual harness::Json guestState() { return {}; }
};

/**
 * Build @p def for master seed @p master_seed (the grid point's seed
 * is harness::deriveSeed of it). @p spans may be null (untraced).
 */
std::unique_ptr<Scenario> build(const WorkloadDef &def,
                                std::uint64_t master_seed,
                                Spans *spans);

/** Tick @p sc until @p horizon or until its work is done. */
void runTo(Scenario &sc, TimeNs horizon);

/**
 * The canonical `hawksim-report/v1` run entry of a finished point,
 * as `hawksim_bench` would write it into "runs" (compact JSON).
 */
std::string runEntry(const WorkloadDef &def, std::uint64_t master_seed,
                     harness::RunOutput output);

/** 64-bit FNV-1a digest of a run entry plus guest state, as hex. */
std::string digest(const std::string &run_entry,
                   const harness::Json &guest_state);

/**
 * Digest pinned for (@p workload, master @p seed) in the pinned-digest
 * file at @p path (lines "workload seed digest", '#' comments), or
 * empty when the file pins none. Fatal when the file cannot be read.
 */
std::string pinnedDigest(const std::string &path,
                         const std::string &workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_SCENARIO_HH
