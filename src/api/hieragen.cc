#include "api/hieragen.hh"

#include "fsm/lint.hh"
#include "pipeline/pipeline.hh"
#include "util/logging.hh"

namespace hieragen::api
{

namespace
{

core::HierGenOptions
toHierGenOptions(const GenerateRequest &req)
{
    core::HierGenOptions opts;
    opts.mode = req.mode;
    opts.compose.conservativeCompat = !req.optimizedCompat;
    opts.compose.dirCacheEvictions = req.dirCacheEvictions;
    opts.mergeEquivalentStates = req.mergeEquivalentStates;
    return opts;
}

} // namespace

GenerateRequest &
GenerateRequest::ownLower(Protocol p)
{
    return ownLower(std::make_shared<const Protocol>(std::move(p)));
}

GenerateRequest &
GenerateRequest::ownHigher(Protocol p)
{
    return ownHigher(std::make_shared<const Protocol>(std::move(p)));
}

GenerateRequest &
GenerateRequest::ownLower(std::shared_ptr<const Protocol> p)
{
    lowerOwned = std::move(p);
    lower = lowerOwned.get();
    return *this;
}

GenerateRequest &
GenerateRequest::ownHigher(std::shared_ptr<const Protocol> p)
{
    higherOwned = std::move(p);
    higher = higherOwned.get();
    return *this;
}

// ---------------------------------------------------------------
// Jobs

namespace
{

struct StateName
{
    JobState state;
    const char *name;
};

constexpr StateName kStateNames[] = {
    {JobState::Queued, "queued"},
    {JobState::Generating, "generating"},
    {JobState::Running, "running"},
    {JobState::Preempted, "preempted"},
    {JobState::Done, "done"},
    {JobState::Failed, "failed"},
    {JobState::Cancelled, "cancelled"},
};

} // namespace

const char *
jobStateName(JobState s)
{
    for (const StateName &sn : kStateNames)
        if (sn.state == s)
            return sn.name;
    return "failed";
}

JobState
jobStateFromName(std::string_view name)
{
    for (const StateName &sn : kStateNames)
        if (name == sn.name)
            return sn.state;
    return JobState::Failed;
}

bool
jobStateTerminal(JobState s)
{
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
}

GenerateResult
generate(const GenerateRequest &req)
{
    HG_ASSERT(req.lower && req.higher,
              "generate() needs both SSPs set on the request");

    pipeline::PassManager pm = core::buildPipeline(toHierGenOptions(req));
    pm.setLintGates(req.checkPasses);
    if (req.telemetry)
        pm.setTelemetry(req.telemetry);
    if (!req.dumpAfterPass.empty() && req.dumpStream)
        pm.setDumpAfter(req.dumpAfterPass, req.dumpStream);

    pipeline::ProtocolBundle b;
    b.lower = req.lower;
    b.higher = req.higher;
    b.mode = req.mode;
    b.dirCacheEvictions = req.dirCacheEvictions;

    GenerateResult out;
    out.ok = pm.run(b);
    out.passesRun = pm.report().size();
    out.statsTable = pm.statsTable();
    out.statsJson = pm.statsJson(b);
    if (!out.ok && !pm.report().empty()) {
        const auto &last = pm.report().back();
        out.failedPass = last.pass;
        out.lintReport = formatIssues(last.lintIssues);
    }
    out.protocol = std::move(b.hier);
    return out;
}

std::vector<HierProtocol>
generateDeep(const std::vector<const Protocol *> &levels,
             const GenerateRequest &req)
{
    return core::generateDeep(levels, toHierGenOptions(req));
}

std::vector<core::PassInfo>
listPasses()
{
    return core::listPasses();
}

// ---------------------------------------------------------------
// VerifySession

VerifySession::VerifySession(verif::System sys, verif::CheckOptions opts)
    : sys_(std::move(sys)), opts_(std::move(opts))
{}

verif::CheckOptions
verifyOptionsFor(ConcurrencyMode mode)
{
    verif::CheckOptions o;
    o.atomicTransactions = mode == ConcurrencyMode::Atomic;
    return o;
}

VerifySession
VerifySession::flat(const Protocol &p, int num_caches,
                    verif::CheckOptions opts)
{
    return VerifySession(verif::buildFlatSystem(p, num_caches),
                         std::move(opts));
}

VerifySession
VerifySession::hier(const HierProtocol &p, int num_cache_h,
                    int num_cache_l, verif::CheckOptions opts)
{
    return VerifySession(
        verif::buildHierSystem(p, num_cache_h, num_cache_l),
        std::move(opts));
}

VerifySession &
VerifySession::checkpointTo(std::string path, double interval_sec)
{
    opts_.checkpointPath = std::move(path);
    opts_.checkpointIntervalSec = interval_sec;
    return *this;
}

bool
VerifySession::resumeFrom(const std::string &path)
{
    auto data = std::make_unique<verif::CheckpointData>();
    verif::CheckpointIo io = verif::CheckpointReader().read(path, *data);
    if (!io.ok) {
        error_ = io.error;
        return false;
    }
    std::string mismatch =
        verif::resumeCompatibilityError(*data, sys_, opts_);
    if (!mismatch.empty()) {
        error_ = mismatch;
        return false;
    }
    resume_ = std::move(data);
    error_.clear();
    return true;
}

VerifySession &
VerifySession::onStop(const std::atomic<bool> *flag)
{
    opts_.stopRequested = flag;
    return *this;
}

VerifySession &
VerifySession::cancelWith(const util::CancelToken *token)
{
    opts_.cancel = token;
    return *this;
}

VerifySession &
VerifySession::memoryLimit(uint64_t max_resident_bytes,
                           verif::MemoryLimitPolicy policy)
{
    opts_.maxResidentBytes = max_resident_bytes;
    opts_.memoryLimitPolicy = policy;
    return *this;
}

VerifySession &
VerifySession::spillTo(std::string dir)
{
    opts_.spillDir = std::move(dir);
    opts_.memoryLimitPolicy = verif::MemoryLimitPolicy::SpillToDisk;
    return *this;
}

VerifySession &
VerifySession::telemetry(obs::Telemetry *t)
{
    opts_.telemetry = t;
    return *this;
}

bool
VerifySession::journalTo(const std::string &path)
{
    auto j = std::make_unique<obs::Journal>();
    if (!j->open(path)) {
        error_ = j->error();
        return false;
    }
    journal_ = std::move(j);
    error_.clear();
    return true;
}

const verif::CheckResult &
VerifySession::run()
{
    if (ran_)
        return result_;
    // Compose the owned journal with whatever sinks the caller
    // wired, without mutating their Telemetry. Done here (not in
    // journalTo) so the self-pointer never outlives a session move.
    obs::Telemetry *saved = opts_.telemetry;
    if (journal_ && (!saved || !saved->journal)) {
        ownedTelemetry_ = saved ? *saved : obs::Telemetry{};
        ownedTelemetry_.journal = journal_.get();
        opts_.telemetry = &ownedTelemetry_;
    }
    opts_.resume = resume_.get();
    result_ = verif::check(sys_, opts_);
    opts_.resume = nullptr;
    opts_.telemetry = saved;
    ran_ = true;
    return result_;
}

} // namespace hieragen::api
