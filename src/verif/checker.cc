#include "verif/checker.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "obs/journal.hh"
#include "obs/statusserver.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "verif/checkpoint.hh"
#include "verif/engine.hh"

namespace hieragen::verif
{

std::string
CheckResult::summary() const
{
    std::ostringstream os;
    const char *states_word =
        symmetryReduction ? " canonical states" : " states";
    if (ok) {
        os << "PASS " << statesExplored << states_word << ", "
           << transitionsFired << " transitions";
        if (omissionProbability > 0)
            os << ", omission<" << omissionProbability;
    } else {
        os << "FAIL[" << errorKindName(errorKind) << "] " << detail
           << " ("
           << statesExplored << states_word << ")";
    }
    os << " [sym " << (symmetryReduction ? "on" : "off") << ", por "
       << (partialOrderReduction ? "on" : "off") << ", compaction "
       << (hashCompaction ? "on" : "off") << "]";
    return os.str();
}

std::string
CheckResult::traceJson() const
{
    std::ostringstream os;
    os << "{\n  \"ok\": " << (ok ? "true" : "false")
       << ",\n  \"error_kind\": "
       << obs::jsonQuote(errorKindName(errorKind))
       << ",\n  \"detail\": " << obs::jsonQuote(detail)
       << ",\n  \"states_explored\": " << statesExplored
       << ",\n  \"transitions_fired\": " << transitionsFired
       << ",\n  \"symmetry_reduction\": "
       << (symmetryReduction ? "true" : "false") << ",\n  \"steps\": [";
    for (size_t i = 0; i < traceStepsJson.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << traceStepsJson[i];
    os << (traceStepsJson.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

CheckResult
check(const System &sys, const CheckOptions &opts)
{
    if (opts.telemetry) {
        // Run identity, recorded once per check() call: the same
        // fingerprint pair the checkpoint format uses to refuse
        // incompatible resumes, so a journal replay can match a
        // snapshot to the run that wrote it.
        char fp[17], sh[17];
        std::snprintf(fp, sizeof fp, "%016llx",
                      static_cast<unsigned long long>(
                          optionsFingerprint(opts)));
        std::snprintf(sh, sizeof sh, "%016llx",
                      static_cast<unsigned long long>(
                          systemConfigHash(sys)));
        if (opts.telemetry->journal) {
            opts.telemetry->journal->event(
                "verify_start",
                {{"options_fingerprint", obs::jsonQuote(fp)},
                 {"system_hash", obs::jsonQuote(sh)},
                 {"nodes", std::to_string(sys.nodes.size())}},
                /*durable=*/true);
        }
        if (opts.telemetry->status) {
            opts.telemetry->status->setField("options_fingerprint",
                                             obs::jsonQuote(fp));
            opts.telemetry->status->setField("system_hash",
                                             obs::jsonQuote(sh));
        }
    }
    if (opts.memoryLimitPolicy == MemoryLimitPolicy::SpillToDisk &&
        opts.spillDir.empty()) {
        CheckResult r;
        r.errorKind = ErrorKind::SpillIo;
        r.detail = "MemoryLimitPolicy::SpillToDisk requires a spill "
                   "directory (CheckOptions::spillDir)";
        return r;
    }
    if (opts.resume) {
        std::string err =
            resumeCompatibilityError(*opts.resume, sys, opts);
        if (err.empty() && !restoreCensus(sys, *opts.resume)) {
            err = "checkpoint census does not match the system's "
                  "machine tables; refusing to resume";
        }
        if (!err.empty()) {
            CheckResult r;
            r.errorKind = ErrorKind::ResumeMismatch;
            r.detail = std::move(err);
            return r;
        }
    }
    unsigned threads = opts.numThreads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return explore(sys, opts, threads);
}

CheckResult
checkFlat(const Protocol &p, int num_caches, const CheckOptions &opts)
{
    System sys = buildFlatSystem(p, num_caches);
    return check(sys, opts);
}

CheckResult
checkHier(const HierProtocol &p, int num_cache_h, int num_cache_l,
          const CheckOptions &opts)
{
    System sys = buildHierSystem(p, num_cache_h, num_cache_l);
    return check(sys, opts);
}

CheckResult
pruneUnreachable(const System &sys, CheckOptions opts,
                 std::vector<Machine *> machines)
{
    for (Machine *m : machines)
        m->clearReachedMarks();
    opts.markReached = true;
    CheckResult r = check(sys, opts);
    if (r.ok) {
        for (Machine *m : machines)
            m->pruneUnreached();
    }
    return r;
}

} // namespace hieragen::verif
