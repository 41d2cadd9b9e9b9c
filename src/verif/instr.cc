#include "verif/instr.hh"

#include <algorithm>

#include "obs/journal.hh"
#include "obs/statusserver.hh"
#include "util/fileio.hh"

namespace hieragen::verif
{

Instr::Instr(const CheckOptions &opts, unsigned workers)
    : telem_(opts.telemetry), workers_(workers),
      maxStates_(opts.maxStates)
{
    if (!telem_)
        return;
    reg_ = telem_->metrics ? telem_->metrics : &localReg_;
    dedupHits_ = &reg_->counter("checker.dedup_hits");
    encBytes_ = &reg_->counter("checker.visited_bytes");
    symCalls_ = &reg_->counter("checker.sym_canonicalizations");
    symSampledNs_ = &reg_->counter("checker.sym_sampled_ns");
    symSampledCalls_ = &reg_->counter("checker.sym_sampled_calls");
    journalEvent(
        "engine_start",
        {{"workers", std::to_string(workers)},
         {"max_states", std::to_string(opts.maxStates)},
         {"symmetry", opts.symmetryReduction ? "true" : "false"},
         {"por", opts.partialOrderReduction ? "true" : "false"},
         {"hash_compaction", opts.hashCompaction ? "true" : "false"},
         {"spill_dir", obs::jsonQuote(opts.spillDir)},
         {"resume", opts.resume ? "true" : "false"}});
}

void
Instr::journalEvent(
    const std::string &kind,
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    if (telem_ && telem_->journal)
        telem_->journal->event(kind, fields);
}

void
Instr::addBatch(uint64_t dedup_hits, uint64_t visited_bytes,
                uint64_t sym_calls)
{
    dedupHits_->add(dedup_hits);
    encBytes_->add(visited_bytes);
    symCalls_->add(sym_calls);
}

void
Instr::noteSymSample(uint64_t ns)
{
    symSampledNs_->add(ns);
    symSampledCalls_->add(1);
}

void
Instr::noteCheckpointWrite(uint64_t bytes, double ms,
                           uint64_t states_explored)
{
    cpWrites_.fetch_add(1, std::memory_order_relaxed);
    cpBytes_.fetch_add(bytes, std::memory_order_relaxed);
    journalEvent("checkpoint",
                 {{"bytes", std::to_string(bytes)},
                  {"ms", std::to_string(ms)},
                  {"states_explored", std::to_string(states_explored)}});
    if (!reg_)
        return;
    reg_->counter("checkpoint.writes").add(1);
    reg_->counter("checkpoint.bytes_written").add(bytes);
    reg_->gauge("checkpoint.last_write_ms").set(ms);
}

void
Instr::noteCheckpointRestore(double ms)
{
    if (reg_)
        reg_->gauge("checkpoint.restore_ms").set(ms);
    journalEvent("restore", {{"ms", std::to_string(ms)}});
}

void
Instr::publishPerf(const CheckResult::PhaseBreakdown &p)
{
    if (!telem_ || !telem_->metrics)
        return;
    obs::MetricsRegistry &m = *telem_->metrics;
    auto pub = [&m](const char *phase,
                    const CheckResult::PhaseBreakdown::PerfSample &s) {
        std::string base = std::string("perf.") + phase;
        m.counter(base + "_cycles").add(s.cycles);
        m.counter(base + "_instructions").add(s.instructions);
        m.counter(base + "_cache_misses").add(s.cacheMisses);
        m.counter(base + "_branch_misses").add(s.branchMisses);
    };
    pub("expand", p.expandPerf);
    pub("encode", p.encodePerf);
    pub("insert", p.insertPerf);
}

void
Instr::fillSample(obs::ProgressSample &s) const
{
    s.symSampledNs = symSampledNs_->value();
    s.symSampledCalls = symSampledCalls_->value();
    s.symCalls = symCalls_->value();
    s.maxStates = maxStates_;
    s.workers = workers_;
    s.checkpointsWritten = cpWrites_.load(std::memory_order_relaxed);
    s.checkpointBytes = cpBytes_.load(std::memory_order_relaxed);
    s.rssBytes = util::currentRssBytes();
}

void
Instr::startProgress(obs::ProgressReporter::SampleFn fn)
{
    if (!telem_)
        return;
    if (telem_->status) {
        telem_->status->setSampler(fn);
        statusRegistered_ = true;
    }
    if (telem_->wantsProgress()) {
        reporter_.start(telem_->progressIntervalSec, std::move(fn), reg_,
                        trace(), telem_->quietProgress,
                        telem_->journal);
    }
}

void
Instr::finalize(const CheckResult &r, double wall_ms,
                uint64_t visited_entries)
{
    reporter_.stop();
    if (statusRegistered_) {
        telem_->status->clearSampler();
        statusRegistered_ = false;
    }
    if (telem_ && telem_->journal) {
        telem_->journal->event(
            "verdict",
            {{"ok", r.ok ? "true" : "false"},
             {"error_kind", obs::jsonQuote(errorKindName(r.errorKind))},
             {"states_explored", std::to_string(r.statesExplored)},
             {"states_generated", std::to_string(r.statesGenerated)},
             {"transitions_fired", std::to_string(r.transitionsFired)},
             {"wall_ms",
              std::to_string(static_cast<uint64_t>(wall_ms))},
             {"resumable", r.resumable ? "true" : "false"},
             {"resumed", r.resumedFromCheckpoint ? "true" : "false"},
             {"spilled", r.spilledToDisk ? "true" : "false"},
             {"checkpoints_written",
              std::to_string(r.checkpointsWritten)},
             {"peak_rss_bytes", std::to_string(r.peakRssBytes)}},
            /*durable=*/true);
    }
    if (!telem_ || !telem_->metrics)
        return;
    obs::MetricsRegistry &m = *telem_->metrics;
    m.gauge("checker.ok").set(r.ok ? 1.0 : 0.0);
    m.counter("checker.states_explored").add(r.statesExplored);
    m.counter("checker.states_generated").add(r.statesGenerated);
    m.counter("checker.transitions_fired").add(r.transitionsFired);
    m.counter("checker.visited_entries").add(visited_entries);
    m.gauge("checker.wall_ms").set(wall_ms);
    m.gauge("checker.states_per_sec")
        .set(wall_ms > 0 ? static_cast<double>(r.statesExplored) * 1e3 /
                               wall_ms
                         : 0.0);
    m.gauge("checker.workers").set(workers_);
    uint64_t gen = r.statesGenerated;
    m.gauge("checker.dedup_hit_rate")
        .set(gen ? static_cast<double>(dedupHits_->value()) /
                       static_cast<double>(gen)
                 : 0.0);
    if (r.spilledToDisk) {
        m.counter("checker.spilled_bytes").add(r.spilledBytes);
        m.counter("checker.spill_segments").add(r.spillSegmentsWritten);
        m.counter("checker.disk_probes").add(r.diskProbes);
        m.gauge("checker.disk_probe_hit_rate")
            .set(r.diskProbes ? static_cast<double>(r.diskProbeHits) /
                                    static_cast<double>(r.diskProbes)
                              : 0.0);
        m.gauge("checker.spill_stall_ms").set(r.spillStallMs);
    }
    m.gauge("checker.peak_rss_bytes")
        .set(static_cast<double>(r.peakRssBytes));
    uint64_t sampled = symSampledCalls_->value();
    if (sampled > 0 && wall_ms > 0) {
        double est_ns = static_cast<double>(symSampledNs_->value()) *
                        static_cast<double>(symCalls_->value()) /
                        static_cast<double>(sampled);
        m.gauge("checker.sym_time_share")
            .set(std::clamp(est_ns / (wall_ms * 1e6 *
                                      static_cast<double>(workers_)),
                            0.0, 1.0));
    }
}

PhaseTotals &
PhaseTotals::operator+=(const PhaseTotals &o)
{
    expandNs += o.expandNs;
    encodeNs += o.encodeNs;
    canonNs += o.canonNs;
    insertNs += o.insertNs;
    sampledExpansions += o.sampledExpansions;
    sampledAdds += o.sampledAdds;
    expandPerf += o.expandPerf;
    encodePerf += o.encodePerf;
    insertPerf += o.insertPerf;
    perf = perf || o.perf;
    return *this;
}

WorkerInstr::WorkerInstr(Instr &instr, bool phase_timing)
    : instr_(instr), phaseTiming_(phase_timing)
{
    if (phase_timing) {
        // Hardware counters ride the same 1-in-8 sample as the wall
        // clocks; silently absent where perf_event_open is unusable
        // (container policy, non-Linux).
        perf_ = std::make_unique<obs::PerfCounterSet>();
        if (!perf_->available())
            perf_.reset();
        totals_.perf = perf_ != nullptr;
    }
}

void
WorkerInstr::encode(const System &sys, bool symmetry, SysState &st,
                    std::string &out, EncodeScratch &esc)
{
    if (!symmetry) {
        if (!sampling_) {
            st.encodeTo(sys, out, esc);
            return;
        }
        obs::PerfCounts p0;
        if (perf_)
            p0 = perf_->read();
        sectionSw_.restart();
        st.encodeTo(sys, out, esc);
        totals_.encodeNs += sectionSw_.ns();
        if (perf_)
            totals_.encodePerf += perf_->read() - p0;
        ++totals_.sampledAdds;
        return;
    }
    // Both samplers want the encode/orbit split the scratch can
    // attribute, so one timed call serves either: the telemetry
    // share samples the orbit walk only (the cost symmetry adds on
    // top of the baseline encode), the phase breakdown takes both.
    bool sym_sample = false;
    if (instr_.on()) {
        ++symCalls_;
        sym_sample = (symTick_++ & 63) == 0;
    }
    if (!sym_sample && !sampling_) {
        st.encodeCanonicalTo(sys, out, esc);
        return;
    }
    esc.timeSections = true;
    esc.encodeNs = esc.orbitNs = 0;
    obs::PerfCounts p0;
    if (sampling_ && perf_)
        p0 = perf_->read();
    st.encodeCanonicalTo(sys, out, esc);
    esc.timeSections = false;
    if (sym_sample)
        instr_.noteSymSample(esc.orbitNs);
    if (sampling_) {
        if (perf_)
            totals_.encodePerf += perf_->read() - p0;
        totals_.encodeNs += static_cast<double>(esc.encodeNs);
        totals_.canonNs += static_cast<double>(esc.orbitNs);
        ++totals_.sampledAdds;
    }
}

void
finishPhases(const PhaseTotals &t, CheckResult &r, Instr &instr)
{
    if (t.sampledExpansions == 0)
        return;
    double expand_scale = static_cast<double>(r.statesExplored) /
                          static_cast<double>(t.sampledExpansions);
    double add_scale = t.sampledAdds
                           ? static_cast<double>(r.statesGenerated) /
                                 static_cast<double>(t.sampledAdds)
                           : 0.0;
    CheckResult::PhaseBreakdown &p = r.phases;
    p.enabled = true;
    p.expandMs = t.expandNs * expand_scale / 1e6;
    p.encodeMs = t.encodeNs * add_scale / 1e6;
    p.canonicalizeMs = t.canonNs * add_scale / 1e6;
    p.insertMs = t.insertNs * add_scale / 1e6;
    p.sampledExpansions = t.sampledExpansions;
    if (!t.perf || !t.expandPerf.valid)
        return;
    auto scale = [](const obs::PerfCounts &c, double f) {
        CheckResult::PhaseBreakdown::PerfSample s;
        s.cycles = static_cast<uint64_t>(static_cast<double>(c.cycles) * f);
        s.instructions =
            static_cast<uint64_t>(static_cast<double>(c.instructions) * f);
        s.cacheMisses =
            static_cast<uint64_t>(static_cast<double>(c.cacheMisses) * f);
        s.branchMisses =
            static_cast<uint64_t>(static_cast<double>(c.branchMisses) * f);
        return s;
    };
    p.perfEnabled = true;
    p.expandPerf = scale(t.expandPerf, expand_scale);
    p.encodePerf = scale(t.encodePerf, add_scale);
    p.insertPerf = scale(t.insertPerf, add_scale);
    instr.publishPerf(p);
    instr.journalEvent(
        "perf",
        {{"expand_cycles", std::to_string(p.expandPerf.cycles)},
         {"expand_instructions",
          std::to_string(p.expandPerf.instructions)},
         {"expand_cache_misses", std::to_string(p.expandPerf.cacheMisses)},
         {"encode_cycles", std::to_string(p.encodePerf.cycles)},
         {"insert_cycles", std::to_string(p.insertPerf.cycles)}});
}

void
SpanChunker::flushAt(uint64_t now)
{
    w_->completeEvent("expand", tid_, startUs_, now - startUs_,
                      {{"states", std::to_string(states_)}});
    startUs_ = now;
    states_ = 0;
}

} // namespace hieragen::verif
