/**
 * @file
 * Checker instrumentation: the run-wide telemetry hooks (Instr), the
 * per-worker half that samples canonicalization cost and `--phases`
 * wall time and hardware counters (WorkerInstr), and the trace-span
 * coalescer (SpanChunker). Internal to hg_verif.
 *
 * With telemetry off (no CheckOptions::telemetry) every hook sits
 * behind a predictable branch. Workers count events in plain locals
 * and hand them to Instr once per batch, so no hook pays a shared
 * atomic per state.
 */

#ifndef HIERAGEN_VERIF_INSTR_HH
#define HIERAGEN_VERIF_INSTR_HH

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/perfcounters.hh"
#include "obs/telemetry.hh"
#include "util/stopwatch.hh"
#include "verif/checker.hh"

namespace hieragen::verif
{

struct EncodeScratch;

/**
 * Run-wide instrumentation shared by the workers and the progress
 * sampler thread. When the caller supplied no registry but wants a
 * heartbeat, counters land in a run-local registry so the sampler
 * still has data; finalize() only publishes to a caller-supplied
 * registry.
 */
class Instr
{
  public:
    Instr(const CheckOptions &opts, unsigned workers);

    bool on() const { return telem_ != nullptr; }

    obs::TraceWriter *
    trace() const
    {
        return telem_ ? telem_->trace : nullptr;
    }

    /** Cold-path journal record; no-op without a journal. */
    void journalEvent(
        const std::string &kind,
        const std::vector<std::pair<std::string, std::string>>
            &fields = {});

    /** One worker batch's events (call only when on()). */
    void addBatch(uint64_t dedup_hits, uint64_t visited_bytes,
                  uint64_t sym_calls);

    /** One timed canonicalization (call only when on()). */
    void noteSymSample(uint64_t ns);

    void noteCheckpointWrite(uint64_t bytes, double ms,
                             uint64_t states_explored);
    void noteCheckpointRestore(double ms);

    /** Publish the scaled hardware-counter phase attribution to the
     *  caller's registry (cold path, once per run). */
    void publishPerf(const CheckResult::PhaseBreakdown &p);

    /** Fill the sample fields Instr owns (symmetry share, limits,
     *  checkpoints, RSS); the engine fills its own counters. */
    void fillSample(obs::ProgressSample &s) const;

    /** Start the heartbeat and register with the status socket. The
     *  callback must stay valid until finalize(). */
    void startProgress(obs::ProgressReporter::SampleFn fn);

    /** Stop the heartbeat and publish final totals. */
    void finalize(const CheckResult &r, double wall_ms,
                  uint64_t visited_entries);

  private:
    obs::Telemetry *telem_ = nullptr;
    const unsigned workers_;
    const uint64_t maxStates_;

    obs::MetricsRegistry localReg_;  ///< fallback when no registry
    obs::MetricsRegistry *reg_ = nullptr;
    obs::Counter *dedupHits_ = nullptr;
    obs::Counter *encBytes_ = nullptr;
    obs::Counter *symCalls_ = nullptr;
    obs::Counter *symSampledNs_ = nullptr;
    obs::Counter *symSampledCalls_ = nullptr;

    std::atomic<uint64_t> cpWrites_{0};
    std::atomic<uint64_t> cpBytes_{0};
    bool statusRegistered_ = false;
    obs::ProgressReporter reporter_;
};

/** Sampled `--phases` accumulators of one worker (nanoseconds and
 *  hardware counts over the sample), summed across workers. */
struct PhaseTotals
{
    double expandNs = 0, encodeNs = 0, canonNs = 0, insertNs = 0;
    uint64_t sampledExpansions = 0, sampledAdds = 0;
    obs::PerfCounts expandPerf, encodePerf, insertPerf;
    bool perf = false;  ///< some worker had hardware counters

    PhaseTotals &operator+=(const PhaseTotals &o);
};

/**
 * One worker's instrumentation: the 1-in-64 canonicalization sample
 * behind the telemetry's symmetry time share, and — with
 * CheckOptions::phaseTiming — 1-in-8 expansion sampling that splits
 * wall time (and hardware counters, where perf_event_open works)
 * into encode/canonicalize, visited-table insert and the rest.
 * Hardware counters are per thread, so each worker opens its own.
 */
class WorkerInstr
{
  public:
    WorkerInstr(Instr &instr, bool phase_timing);

    /** Bracket one expansion; only every 8th is timed. */
    void
    beginExpansion()
    {
        if (!phaseTiming_ || (tick_++ & 7) != 0)
            return;
        sampling_ = true;
        if (perf_)
            perf0_ = perf_->read();
        expandSw_.restart();
    }

    void
    endExpansion()
    {
        if (!sampling_)
            return;
        sampling_ = false;
        totals_.expandNs += expandSw_.ns();
        if (perf_)
            totals_.expandPerf += perf_->read() - perf0_;
        ++totals_.sampledExpansions;
    }

    /** Canonicalize (under symmetry reduction) and encode @p st into
     *  @p out, timing it when sampled. */
    void encode(const System &sys, bool symmetry, SysState &st,
                std::string &out, EncodeScratch &esc);

    /** Run the visited-table probe/insert @p fn, timing it when the
     *  current expansion is sampled. */
    template <typename Fn>
    bool
    insert(Fn &&fn)
    {
        if (!sampling_)
            return fn();
        obs::PerfCounts p0;
        if (perf_)
            p0 = perf_->read();
        sectionSw_.restart();
        bool fresh = fn();
        totals_.insertNs += sectionSw_.ns();
        if (perf_)
            totals_.insertPerf += perf_->read() - p0;
        return fresh;
    }

    /** Canonicalizations since the last call (for Instr::addBatch). */
    uint64_t
    takeSymCalls()
    {
        uint64_t n = symCalls_;
        symCalls_ = 0;
        return n;
    }

    const PhaseTotals &totals() const { return totals_; }

  private:
    Instr &instr_;
    const bool phaseTiming_;
    bool sampling_ = false;
    unsigned tick_ = 0;
    unsigned symTick_ = 0;
    uint64_t symCalls_ = 0;
    util::Stopwatch expandSw_;
    util::Stopwatch sectionSw_;
    std::unique_ptr<obs::PerfCounterSet> perf_;
    obs::PerfCounts perf0_;
    PhaseTotals totals_;
};

/** Scale the sampled totals back to run totals in r.phases (and
 *  publish the hardware counters when there are any). */
void finishPhases(const PhaseTotals &t, CheckResult &r, Instr &instr);

/**
 * Coalesces per-state expansion work into chunky "expand" spans on
 * one worker's trace track, so a multi-minute run stays a few
 * thousand events instead of one per state. Null writer disables.
 */
class SpanChunker
{
  public:
    SpanChunker(obs::TraceWriter *w, uint32_t tid) : w_(w), tid_(tid)
    {
        if (w_)
            startUs_ = w_->nowUs();
    }

    ~SpanChunker() { flush(); }

    void
    bump()
    {
        if (!w_)
            return;
        ++states_;
        uint64_t now = w_->nowUs();
        if (now - startUs_ >= kChunkUs)
            flushAt(now);
    }

    void
    flush()
    {
        if (w_ && states_ > 0)
            flushAt(w_->nowUs());
    }

  private:
    static constexpr uint64_t kChunkUs = 50'000;

    void flushAt(uint64_t now);

    obs::TraceWriter *w_ = nullptr;
    uint32_t tid_ = 1;
    uint64_t startUs_ = 0;
    uint64_t states_ = 0;
};

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_INSTR_HH
