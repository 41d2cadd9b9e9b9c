/**
 * @file
 * The exploration engine: N >= 1 workers running one breadth-first
 * search, with N = 1 as the degenerate case rather than a separate
 * algorithm.
 *
 * Workers take batches of up to kBatch states from a shared FIFO
 * frontier, expand them (expand.cc), probe each successor into a
 * visited set sharded by fingerprint, and hand the batch's new states
 * back to the frontier with one queue-lock acquisition. With one
 * worker the batches leave and re-enter the FIFO in order, so the
 * search is the classic deterministic BFS and counterexample traces
 * are shortest. With more, every unique state is still expanded
 * exactly once, so clean runs report identical counts at any N.
 *
 * Controls live at batch boundaries and nowhere else, never behind a
 * timer: before each batch — and so before the first expansion —
 * every worker checks stop and cancel (relaxed atomic loads), the
 * memory watermark and the checkpoint cadence. Work that needs the
 * exploration quiescent (checkpoint, spill, degrade to hash
 * compaction) runs at a rendezvous: the worker that saw the need
 * raises cpRequest_, every other worker parks at its next boundary,
 * the leader does the work and releases them. A worker holds no
 * states between batches, so a quiescent frontier is complete.
 */

#include "verif/engine.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/stopwatch.hh"
#include "verif/checkpoint.hh"
#include "verif/expand.hh"
#include "verif/instr.hh"
#include "verif/statestore.hh"

namespace hieragen::verif
{

namespace
{

/** States a worker takes per queue-lock acquisition; also the
 *  granularity of every control check. */
constexpr size_t kBatch = 32;

/** Visited-set shards of a multi-worker run (a power of two). A
 *  single worker uses one shard, so its table grows, spills and
 *  checkpoints as one. */
constexpr size_t kShards = 64;

/** Directory half of @p path ("." when it has no separator) — where
 *  a resumed checkpoint's spill segments already live. */
std::string
dirnameOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

class Engine
{
  public:
    Engine(const System &sys, const CheckOptions &opts,
           unsigned workers);

    CheckResult run();

  private:
    struct Shard
    {
        std::mutex mu;
        StateStore store;
    };

    struct TraceNode
    {
        SysState state;
        size_t parent;
        std::string how;
    };

    /** One state of a batch: owned when popped from the frontier,
     *  read in place from the trace arena when tracing. */
    struct Item
    {
        SysState state;
        const SysState *traced = nullptr;
        size_t node = SIZE_MAX;  ///< arena index (tracing runs only)

        const SysState &cur() const { return traced ? *traced : state; }
    };

    /** A successor accepted into the visited set, awaiting enqueue. */
    struct Accepted
    {
        SysState state;
        size_t parent;
        std::string how;
    };

    /** Per-worker scratch and the event counts since its last
     *  flush(), which publishes them. */
    struct Worker
    {
        Worker(Engine &e, unsigned index)
            : instr(e.instr_, e.opts_.phaseTiming),
              chunker(e.instr_.trace(), index + 1)
        {
        }

        std::vector<char> mask;
        std::vector<Successor> pool;
        Expansion ex;
        EncodeScratch esc;
        std::vector<Item> batch;
        std::vector<Accepted> accepted;
        uint64_t generated = 0, fired = 0, ample = 0;
        uint64_t visited = 0, visitedBytes = 0, encBytes = 0;
        uint64_t dedupHits = 0;
        WorkerInstr instr;
        SpanChunker chunker;
    };

    struct ErrorSlot
    {
        ErrorKind kind = ErrorKind::None;
        std::string detail;
        size_t node = SIZE_MAX;
        std::string how;
        SysState bad;
        bool hasBad = false;
    };

    const System &sys_;
    const CheckOptions &opts_;
    const unsigned numWorkers_;
    const size_t shardMask_;
    // Not const: a degrade (at a rendezvous, so ordered by cpMu_
    // against every worker's reads) turns compaction on and tracing
    // off; a resume from a degraded checkpoint starts compacted, and
    // one that references spill segments turns spilling on.
    bool compaction_;
    bool spill_;
    bool tracing_;
    const bool symmetry_;
    CheckResult result_;
    Expander expander_;
    Instr instr_;
    util::Stopwatch wall_;

    // The spill tier is shared by every shard's store; it mutates
    // only at a rendezvous or before workers start.
    SpillTier tier_;
    std::string spillError_;  ///< latched spill-arming failure
    std::unique_ptr<Shard[]> shards_;

    // The FIFO frontier: states in frontier_, or — when tracing —
    // arena indices in nodes_, since the arena already holds every
    // state. One of the two is always empty.
    std::mutex qMu_;
    std::condition_variable qCv_;
    SpillableFrontier frontier_;  ///< qMu_
    std::deque<size_t> nodes_;    ///< qMu_
    size_t pending_ = 0;  ///< queued + being expanded; qMu_
    std::atomic<bool> stop_{false};

    // Every accepted state of a tracing run. A deque, so published
    // elements never move and workers expand them in place.
    std::mutex arenaMu_;
    std::deque<TraceNode> arena_;

    std::mutex errMu_;
    bool hasError_ = false;
    ErrorSlot error_;

    // Run totals. Workers claim explored_ per batch and publish the
    // rest at each flush, so no shared atomic is paid per state.
    std::atomic<uint64_t> explored_{0};
    std::atomic<uint64_t> generated_{0};
    std::atomic<uint64_t> fired_{0};
    std::atomic<uint64_t> ample_{0};
    std::atomic<uint64_t> visited_{0};
    std::atomic<uint64_t> visitedBytes_{0};  ///< encodings/signatures
    std::atomic<uint64_t> tierBytes_{0};  ///< tier_.memoryBytes()

    // Rendezvous: the leader raises cpRequest_ (under qMu_, so no
    // idle worker misses it) and waits until cpParked_ == alive_.
    std::atomic<bool> cpRequest_{false};
    std::mutex cpMu_;
    std::condition_variable cpCv_;
    unsigned cpParked_ = 0;  ///< cpMu_
    unsigned alive_ = 0;     ///< workers not yet retired; cpMu_

    uint64_t fingerprint_ = 0;
    uint64_t sysHash_ = 0;
    std::atomic<double> lastCheckpointMs_{0};

    std::mutex phaseMu_;
    PhaseTotals phases_;

    std::string armSpill(const std::string &dir);
    void seed(Worker &w);
    void workerLoop(Worker &w);
    bool atBatchBoundary();
    bool takeBatch(Worker &w);
    size_t queuedLocked() const;
    size_t claim(size_t n);
    void expandItem(const Item &it, Worker &w);
    void stage(Worker &w, Successor &s);
    bool insertStaged(Worker &w, size_t n, size_t parent);
    void flush(Worker &w, size_t consumed);
    void reportError(ErrorKind kind, std::string detail,
                     size_t node = SIZE_MAX, std::string how = {},
                     const SysState *bad = nullptr);

    void park();
    void retire();
    template <typename Fn> void rendezvous(Fn &&fn);

    bool onWatermark();
    uint64_t memEstimate();
    uint64_t hotBytes();
    uint64_t avgStateBytes() const;
    uint64_t perShard(uint64_t total) const;
    uint64_t minSpillBytes() const;
    size_t frontierWindow() const;
    bool checkpointDue() const;
    void spillHotTables();
    void writeCheckpoint();
    void degrade();
    std::string restoreFrom(const CheckpointData &d);

    obs::ProgressSample sample();
    void buildTrace(size_t idx);
    CheckResult finish();
};

Engine::Engine(const System &sys, const CheckOptions &opts,
               unsigned workers)
    : sys_(sys), opts_(opts), numWorkers_(workers),
      shardMask_(workers > 1 ? kShards - 1 : 0),
      compaction_(opts.hashCompaction ||
                  (opts.resume && opts.resume->header.storedAsHashes)),
      spill_(!opts.spillDir.empty()),
      tracing_(opts.traceOnError && !compaction_ && !spill_),
      symmetry_(opts.symmetryReduction && !sys.symClasses.empty()),
      expander_(sys, opts), instr_(opts, workers),
      shards_(std::make_unique<Shard[]>(shardMask_ + 1))
{
    for (size_t i = 0; i <= shardMask_; ++i) {
        StateStore &s = shards_[i].store;
        s = StateStore(compaction_ ? StateTable::Mode::Hashes
                                   : StateTable::Mode::Exact,
                       &tier_);
        if (opts_.expectedStates)
            s.reserve(opts_.expectedStates / (shardMask_ + 1) + 1);
    }
    if (!opts_.checkpointPath.empty() || opts_.resume) {
        fingerprint_ = optionsFingerprint(opts_);
        sysHash_ = systemConfigHash(sys_);
    }
    if (spill_)
        spillError_ = armSpill(opts_.spillDir);
    if (!opts_.checkpointPath.empty())
        frontier_.retainConsumed(true);
}

CheckResult
Engine::run()
{
    wall_.restart();
    if (!spillError_.empty()) {
        reportError(ErrorKind::SpillIo, spillError_);
        return finish();
    }
    Worker first(*this, 0);
    if (opts_.resume) {
        std::string err = restoreFrom(*opts_.resume);
        if (!err.empty()) {
            reportError(ErrorKind::ResumeMismatch, std::move(err));
            return finish();
        }
    } else {
        seed(first);
    }
    if (instr_.on()) {
        if (auto *tw = instr_.trace()) {
            for (unsigned t = 0; t < numWorkers_; ++t)
                tw->setThreadName(t + 1, "checker worker " +
                                             std::to_string(t));
        }
        instr_.startProgress([this] { return sample(); });
    }

    alive_ = numWorkers_;
    std::vector<std::thread> threads;
    threads.reserve(numWorkers_ - 1);
    for (unsigned t = 1; t < numWorkers_; ++t) {
        threads.emplace_back([this, t] {
            Worker w(*this, t);
            workerLoop(w);
        });
    }
    workerLoop(first);
    for (std::thread &t : threads)
        t.join();
    return finish();
}

/** Arm the spill tier and frontier; "" or the reason it failed. */
std::string
Engine::armSpill(const std::string &dir)
{
    if (!util::ensureDirectory(dir))
        return "cannot create spill directory '" + dir + "'";
    tier_.configure(dir, "visited");
    frontier_.configure(dir, "frontier");
    return "";
}

/** The initial state goes through the successor path: counted as
 *  generated, canonicalized, inserted and invariant-checked. */
void
Engine::seed(Worker &w)
{
    if (w.pool.empty())
        w.pool.emplace_back();
    Successor &s = w.pool[0];
    s.st = initialState(sys_, opts_.accessBudget);
    s.how = "init";
    stage(w, s);
    insertStaged(w, 1, SIZE_MAX);
    flush(w, 0);
}

void
Engine::workerLoop(Worker &w)
{
    while (atBatchBoundary() && takeBatch(w)) {
        if (w.batch.empty())
            continue;  // woken to park for a rendezvous
        size_t allowed = claim(w.batch.size());
        size_t done = 0;
        while (done < allowed && !stop_.load(std::memory_order_relaxed)) {
            expandItem(w.batch[done], w);
            ++done;
            w.chunker.bump();
        }
        if (done < allowed)
            explored_.fetch_sub(allowed - done, std::memory_order_relaxed);
        bool limited = allowed < w.batch.size();
        flush(w, done);
        if (limited) {
            reportError(ErrorKind::StateLimit,
                        "exploration capped at " +
                            std::to_string(opts_.maxStates) + " states");
        }
    }
    w.chunker.flush();
    {
        std::lock_guard<std::mutex> lk(phaseMu_);
        phases_ += w.instr.totals();
    }
    retire();
}

/**
 * The control point every worker passes before each batch. False
 * when the worker must stop. Stop and cancel are relaxed loads; the
 * watermark and the checkpoint cadence may lead a rendezvous.
 */
bool
Engine::atBatchBoundary()
{
    if (cpRequest_.load(std::memory_order_relaxed))
        park();
    if (stop_.load(std::memory_order_relaxed))
        return false;
    if (opts_.cancel && opts_.cancel->cancelled()) {
        // Cancellation is terminal: no checkpoint, no resume.
        std::string why = opts_.cancel->reason();
        reportError(ErrorKind::Cancelled,
                    why.empty() ? "cancelled by caller" : std::move(why));
        return false;
    }
    if (opts_.stopRequested &&
        opts_.stopRequested->load(std::memory_order_relaxed)) {
        reportError(ErrorKind::Interrupted,
                    "stop requested (signal or caller)");
        return false;
    }
    if (opts_.maxResidentBytes && !result_.degradedToCompaction &&
        memEstimate() > opts_.maxResidentBytes && !onWatermark()) {
        return false;
    }
    if (!opts_.checkpointPath.empty() && checkpointDue()) {
        rendezvous([this] {
            if (checkpointDue())
                writeCheckpoint();
        });
    }
    return !stop_.load(std::memory_order_relaxed);
}

/** Take the next batch. False when the run is over for this worker
 *  (stop, exhausted frontier, or a failed segment load); true with
 *  an empty batch when a rendezvous is pending. */
bool
Engine::takeBatch(Worker &w)
{
    w.batch.clear();
    std::string err;
    {
        std::unique_lock<std::mutex> lk(qMu_);
        qCv_.wait(lk, [this] {
            return stop_.load(std::memory_order_relaxed) ||
                   cpRequest_.load(std::memory_order_relaxed) ||
                   queuedLocked() > 0 || pending_ == 0;
        });
        if (stop_.load(std::memory_order_relaxed) ||
            (queuedLocked() == 0 && pending_ == 0))
            return false;
        if (cpRequest_.load(std::memory_order_relaxed))
            return true;
        size_t take = std::min(queuedLocked(), kBatch);
        for (size_t i = 0; i < take; ++i) {
            Item &it = w.batch.emplace_back();
            if (tracing_) {
                it.node = nodes_.front();
                nodes_.pop_front();
            } else if (!frontier_.pop(it.state)) {
                // A pop may reload a segment from disk; a failed
                // load loses states, so it aborts the run.
                err = frontier_.error().empty()
                          ? "frontier segment load failed"
                          : frontier_.error();
                break;
            }
        }
    }
    if (!err.empty()) {
        reportError(ErrorKind::SpillIo, std::move(err));
        return false;
    }
    if (tracing_ && !w.batch.empty()) {
        // Published arena states never move or change, so the lock
        // only orders the lookup against concurrent appends.
        std::lock_guard<std::mutex> lk(arenaMu_);
        for (Item &it : w.batch)
            it.traced = &arena_[it.node].state;
    }
    return true;
}

size_t
Engine::queuedLocked() const
{
    return static_cast<size_t>(frontier_.size()) + nodes_.size();
}

/** Claim up to @p n expansions against maxStates with one atomic;
 *  the claims of all workers never sum past the limit, so a capped
 *  run reports statesExplored == maxStates exactly. */
size_t
Engine::claim(size_t n)
{
    uint64_t base = explored_.fetch_add(n, std::memory_order_relaxed);
    const uint64_t max = opts_.maxStates;
    if (!max || base + n <= max)
        return n;
    size_t allowed = base >= max ? 0 : static_cast<size_t>(max - base);
    explored_.fetch_sub(n - allowed, std::memory_order_relaxed);
    return allowed;
}

void
Engine::expandItem(const Item &it, Worker &w)
{
    w.instr.beginExpansion();
    expander_.expand(it.cur(), tracing_, w.mask, w.pool, w.ex);
    w.fired += w.ex.count;
    w.ample += w.ex.ample ? 1 : 0;
    for (size_t i = 0; i < w.ex.count; ++i)
        stage(w, w.pool[i]);
    if (insertStaged(w, w.ex.count, it.node)) {
        if (w.ex.failed) {
            reportError(ErrorKind::ProtocolError, w.ex.error, it.node);
        } else if (w.ex.count == 0 && !isTerminalState(sys_, it.cur())) {
            reportError(ErrorKind::Deadlock, "no enabled event",
                        it.node);
        }
    }
    w.instr.endExpansion();
}

/** Encode and hash a successor and prefetch its probe group, so the
 *  memory latency of the probe overlaps the encoding of its
 *  siblings. */
void
Engine::stage(Worker &w, Successor &s)
{
    ++w.generated;
    w.instr.encode(sys_, symmetry_, s.st, s.enc, w.esc);
    s.hash = hashState(s.enc, compaction_ ? opts_.compactionSeed : 0);
    shards_[s.hash & shardMask_].store.prefetch(s.hash);
}

/**
 * Probe/insert staged successors in generation order; new ones are
 * invariant-checked (on the canonical form the visited set stores)
 * and buffered for flush(). Consecutive successors in one shard
 * share one lock acquisition. False when a violation was reported;
 * the remaining successors are dropped.
 */
bool
Engine::insertStaged(Worker &w, size_t n, size_t parent)
{
    Shard *held = nullptr;
    std::unique_lock<std::mutex> lk;
    for (size_t i = 0; i < n; ++i) {
        Successor &s = w.pool[i];
        Shard &sh = shards_[s.hash & shardMask_];
        if (&sh != held) {
            if (held)
                lk.unlock();
            lk = std::unique_lock<std::mutex>(sh.mu);
            held = &sh;
        }
        bool fresh = w.instr.insert([&] {
            return compaction_
                       ? sh.store.insertHash(s.hash)
                       : sh.store.insert(
                             s.hash, s.enc.data(),
                             static_cast<uint32_t>(s.enc.size()));
        });
        if (!fresh) {
            ++w.dedupHits;
            continue;
        }
        ++w.visited;
        w.visitedBytes += compaction_ ? 8 : s.enc.size();
        w.encBytes += s.enc.size();
        if (auto v = findViolation(sys_, s.st)) {
            lk.unlock();
            reportError(v->kind, v->detail, parent, std::move(s.how),
                        &s.st);
            return false;
        }
        w.accepted.push_back({std::move(s.st), parent,
                              tracing_ ? std::move(s.how)
                                       : std::string()});
    }
    return true;
}

/** Publish a batch: counters, accepted successors (and their trace
 *  nodes), and the retirement of its @p consumed items, with one
 *  queue-lock acquisition. Items a stop or the state limit cut off
 *  go back to the front of the frontier in order, so a final
 *  checkpoint records it exactly. */
void
Engine::flush(Worker &w, size_t consumed)
{
    constexpr auto rel = std::memory_order_relaxed;
    generated_.fetch_add(w.generated, rel);
    fired_.fetch_add(w.fired, rel);
    ample_.fetch_add(w.ample, rel);
    visited_.fetch_add(w.visited, rel);
    visitedBytes_.fetch_add(w.visitedBytes, rel);
    if (instr_.on())
        instr_.addBatch(w.dedupHits, w.encBytes, w.instr.takeSymCalls());
    w.generated = w.fired = w.ample = 0;
    w.visited = w.visitedBytes = w.encBytes = w.dedupHits = 0;

    size_t base = 0;
    if (tracing_ && !w.accepted.empty()) {
        std::lock_guard<std::mutex> lk(arenaMu_);
        base = arena_.size();
        for (Accepted &a : w.accepted) {
            arena_.push_back(
                {std::move(a.state), a.parent, std::move(a.how)});
        }
    }
    bool wake;
    std::string err;
    {
        std::lock_guard<std::mutex> lk(qMu_);
        for (size_t i = 0; i < w.accepted.size(); ++i) {
            if (tracing_)
                nodes_.push_back(base + i);
            else
                frontier_.push(std::move(w.accepted[i].state));
        }
        for (size_t i = w.batch.size(); i-- > consumed;) {
            if (tracing_)
                nodes_.push_front(w.batch[i].node);
            else
                frontier_.pushFront(std::move(w.batch[i].state));
        }
        pending_ += w.accepted.size();
        pending_ -= consumed;
        err = frontier_.error();
        wake = pending_ == 0 || queuedLocked() > 0;
    }
    w.accepted.clear();
    if (!err.empty())
        reportError(ErrorKind::SpillIo, std::move(err));
    if (wake)
        qCv_.notify_all();
}

/** Record the run's verdict (the first report wins) and stop every
 *  worker at its next boundary. */
void
Engine::reportError(ErrorKind kind, std::string detail, size_t node,
                    std::string how, const SysState *bad)
{
    {
        std::lock_guard<std::mutex> lk(errMu_);
        if (!hasError_) {
            hasError_ = true;
            error_.kind = kind;
            error_.detail = std::move(detail);
            error_.node = node;
            error_.how = std::move(how);
            if (bad) {
                error_.bad = *bad;
                error_.hasBad = true;
            }
        }
    }
    {
        std::lock_guard<std::mutex> lk(qMu_);
        stop_.store(true, std::memory_order_relaxed);
    }
    qCv_.notify_all();
}

/** Park at a batch boundary until the rendezvous leader is done;
 *  cpMu_ orders its mutations against this worker's return. */
void
Engine::park()
{
    std::unique_lock<std::mutex> lk(cpMu_);
    ++cpParked_;
    cpCv_.notify_all();
    cpCv_.wait(lk, [this] {
        return !cpRequest_.load(std::memory_order_relaxed);
    });
    --cpParked_;
}

/** Leave the pool; wakes a leader waiting for the park count. */
void
Engine::retire()
{
    {
        std::lock_guard<std::mutex> lk(cpMu_);
        --alive_;
    }
    cpCv_.notify_all();
}

/**
 * Run @p fn with every other live worker parked at a batch boundary
 * (exclusive access to the frontier, the shards and the census
 * marks). When another worker already leads one, join it as a
 * parked worker instead; @p fn re-checks its own condition.
 */
template <typename Fn>
void
Engine::rendezvous(Fn &&fn)
{
    bool lead;
    {
        std::lock_guard<std::mutex> lk(qMu_);
        lead = !cpRequest_.exchange(true, std::memory_order_relaxed);
    }
    if (!lead) {
        park();
        return;
    }
    qCv_.notify_all();
    std::unique_lock<std::mutex> lk(cpMu_);
    ++cpParked_;
    cpCv_.wait(lk, [this] { return cpParked_ == alive_; });
    fn();
    --cpParked_;
    cpRequest_.store(false, std::memory_order_relaxed);
    lk.unlock();
    cpCv_.notify_all();
}

/** The watermark fired: act by policy. False when the run stops. */
bool
Engine::onWatermark()
{
    if (spill_) {
        // Out-of-core: shed memory, keep exactness, never abort. The
        // watermark stays armed; the frontier window re-tightens as
        // the average state size drifts.
        if (!compaction_ &&
            hotBytes() >= minSpillBytes() * (shardMask_ + 1))
            rendezvous([this] { spillHotTables(); });
        std::string err;
        {
            std::lock_guard<std::mutex> lk(qMu_);
            frontier_.enableSpill(frontierWindow());
            err = frontier_.error();
        }
        if (err.empty())
            return true;
        reportError(ErrorKind::SpillIo, std::move(err));
        return false;
    }
    if (opts_.memoryLimitPolicy ==
            MemoryLimitPolicy::DegradeToCompaction &&
        !compaction_) {
        rendezvous([this] {
            if (result_.degradedToCompaction)
                return;
            writeCheckpoint();  // emergency pre-degrade snapshot
            degrade();          // disarms the watermark
        });
        return true;
    }
    reportError(ErrorKind::MemoryLimit,
                "estimated resident memory exceeds " +
                    std::to_string(opts_.maxResidentBytes) + " bytes");
    return false;
}

/**
 * Resident-set estimate from engine-owned accounting, so the
 * watermark works with telemetry off: measured table bytes (slot
 * arrays + arena chunks) and spill indexes, plus the decoded states
 * the frontier and the trace arena keep (several times their
 * encoding each).
 */
uint64_t
Engine::memEstimate()
{
    uint64_t avg = avgStateBytes();
    uint64_t est = tierBytes_.load(std::memory_order_relaxed);
    for (size_t i = 0; i <= shardMask_; ++i) {
        std::lock_guard<std::mutex> lk(shards_[i].mu);
        est += shards_[i].store.memoryBytes();
    }
    {
        std::lock_guard<std::mutex> lk(qMu_);
        est += frontier_.memStates() * avg;
    }
    std::lock_guard<std::mutex> lk(arenaMu_);
    return est + arena_.size() * avg;
}

uint64_t
Engine::hotBytes()
{
    uint64_t bytes = 0;
    for (size_t i = 0; i <= shardMask_; ++i) {
        std::lock_guard<std::mutex> lk(shards_[i].mu);
        bytes += shards_[i].store.spillableBytes();
    }
    return bytes;
}

/** Mean resident bytes per decoded state, from the stored encoding
 *  sizes (decoded states run ~3x their encoding plus container
 *  overhead). */
uint64_t
Engine::avgStateBytes() const
{
    uint64_t v = visited_.load(std::memory_order_relaxed);
    uint64_t b = visitedBytes_.load(std::memory_order_relaxed);
    return (v ? b / v : 0) * 3 + 96;
}

/** Pre-size target of one shard holding its share of @p total
 *  entries; several shards get headroom so an unlucky one still
 *  avoids a second grow. */
uint64_t
Engine::perShard(uint64_t total) const
{
    const uint64_t shards = shardMask_ + 1;
    return total / shards + (shardMask_ ? total / (4 * shards) : 0) + 1;
}

/** Hot-table bytes per shard worth a spill segment. */
uint64_t
Engine::minSpillBytes() const
{
    return std::min<uint64_t>(
        uint64_t{1} << 20,
        std::max<uint64_t>(opts_.maxResidentBytes / 4, 64u << 10));
}

/** In-memory frontier window once spilling starts: an eighth of the
 *  budget, bounded away from thrashing (too small) and
 *  pointlessness (too large). */
size_t
Engine::frontierWindow() const
{
    uint64_t avg = std::max<uint64_t>(avgStateBytes(), 1);
    uint64_t w = (opts_.maxResidentBytes / 8) / avg;
    return static_cast<size_t>(
        std::clamp<uint64_t>(w, 1024, uint64_t{1} << 20));
}

bool
Engine::checkpointDue() const
{
    return wall_.ms() - lastCheckpointMs_.load(std::memory_order_relaxed) >=
           opts_.checkpointIntervalSec * 1000.0;
}

/** Quiescent: flush every hot table into one sealed segment and
 *  restart them empty. Spill I/O failure aborts the run. */
void
Engine::spillHotTables()
{
    if (compaction_ || hotBytes() < minSpillBytes() * (shardMask_ + 1))
        return;
    std::vector<const StateTable *> tables;
    for (size_t i = 0; i <= shardMask_; ++i)
        tables.push_back(&shards_[i].store.hot());
    std::string err;
    if (!tier_.spillHot(tables.data(), tables.size(), &err)) {
        reportError(ErrorKind::SpillIo, std::move(err));
        return;
    }
    // Shard locks order the resets against the progress sampler.
    for (size_t i = 0; i <= shardMask_; ++i) {
        std::lock_guard<std::mutex> lk(shards_[i].mu);
        shards_[i].store.resetHot();
    }
    tierBytes_.store(tier_.memoryBytes(), std::memory_order_relaxed);
    instr_.journalEvent(
        "spill",
        {{"spilled_bytes", std::to_string(tier_.stats().spilledBytes)},
         {"segments", std::to_string(tier_.stats().segmentsWritten)},
         {"states_explored",
          std::to_string(explored_.load(std::memory_order_relaxed))}});
}

/** Quiescent (at a rendezvous, or with every worker joined): snapshot
 *  the exploration. No-op without a checkpoint path; a failed write
 *  never aborts the run nor clobbers the previous checkpoint. */
void
Engine::writeCheckpoint()
{
    if (opts_.checkpointPath.empty())
        return;
    util::Stopwatch sw;
    CheckpointWriter w(opts_.checkpointPath);
    CheckpointHeader h;
    h.optionsFingerprint = fingerprint_;
    h.systemHash = sysHash_;
    h.storedAsHashes = compaction_;
    h.degraded = result_.degradedToCompaction;
    h.symmetryApplied = symmetry_;
    h.statesExplored = explored_.load();
    h.statesGenerated = generated_.load();
    h.transitionsFired = fired_.load();
    w.begin(h);
    uint64_t stored = 0;
    for (size_t i = 0; i <= shardMask_; ++i)
        stored += shards_[i].store.size();
    w.beginVisited(stored, compaction_);
    for (size_t i = 0; i <= shardMask_; ++i) {
        if (compaction_) {
            shards_[i].store.forEachHash(
                [&](uint64_t v) { w.addVisitedHash(v); });
        } else {
            shards_[i].store.forEachHotExact(
                [&](const char *data, uint32_t len) {
                    w.addVisitedExact(data, len);
                });
        }
    }
    // v3 queue split: in-memory head in the classic frontier section,
    // the spilled middle by segment reference, the in-memory tail in
    // its own section (commit() emits empty sections otherwise).
    w.beginFrontier(nodes_.size() + frontier_.headStates());
    for (size_t idx : nodes_)
        w.addFrontierState(arena_[idx].state);
    frontier_.forEachHead(
        [&](const SysState &st) { w.addFrontierState(st); });
    w.addCensus(sys_);
    if (spill_) {
        w.addSpillSegments(tier_.segmentRefs(), frontier_.segmentRefs());
        w.beginFrontierTail(frontier_.tailStates());
        frontier_.forEachTail(
            [&](const SysState &st) { w.addFrontierState(st); });
    }
    CheckpointIo io = w.commit();
    lastCheckpointMs_.store(wall_.ms(), std::memory_order_relaxed);
    if (!io.ok) {
        warn("checkpoint write failed: ", io.error);
        return;
    }
    ++result_.checkpointsWritten;
    result_.checkpointBytes += io.bytes;
    result_.checkpointFile = opts_.checkpointPath;
    instr_.noteCheckpointWrite(io.bytes, sw.ms(), h.statesExplored);
    // The durable snapshot no longer references any frontier segment
    // consumed before it; their files can go now.
    if (spill_)
        frontier_.purgeConsumed();
}

/**
 * Quiescent: convert the exact run to hash compaction in place.
 * Encodings collapse to signatures, re-sharded into tables pre-sized
 * from the live cardinality (one pass, no rehash storm at the
 * watermark), and tracing stops, releasing the trace arena. Verdict
 * semantics from here match a run started with hashCompaction on.
 */
void
Engine::degrade()
{
    const size_t shards = shardMask_ + 1;
    uint64_t live = 0;
    for (size_t i = 0; i < shards; ++i)
        live += shards_[i].store.size();
    std::vector<StateTable> hashed;
    hashed.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
        hashed.emplace_back(StateTable::Mode::Hashes);
        hashed.back().reserve(perShard(live));
    }
    for (size_t i = 0; i < shards; ++i) {
        shards_[i].store.forEachHotExact(
            [&](const char *data, uint32_t len) {
                uint64_t h = hashState(data, len, opts_.compactionSeed);
                hashed[h & shardMask_].insertHash(h);
            });
    }
    uint64_t total = 0;
    for (size_t i = 0; i < shards; ++i) {
        std::lock_guard<std::mutex> lk(shards_[i].mu);
        shards_[i].store.replaceHot(std::move(hashed[i]));
        total += shards_[i].store.size();
    }
    visited_.store(total, std::memory_order_relaxed);
    visitedBytes_.store(total * 8, std::memory_order_relaxed);
    compaction_ = true;
    if (tracing_) {
        // The unexpanded tail leaves the arena for the frontier, and
        // the arena (every visited state) is released.
        tracing_ = false;
        std::scoped_lock lk(qMu_, arenaMu_);
        for (size_t idx : nodes_)
            frontier_.push(std::move(arena_[idx].state));
        nodes_.clear();
        std::deque<TraceNode>().swap(arena_);
    }
    result_.degradedToCompaction = true;
    instr_.journalEvent(
        "degrade",
        {{"states_explored",
          std::to_string(explored_.load(std::memory_order_relaxed))},
         {"visited_entries", std::to_string(total)}});
}

/** Seed the run from a validated checkpoint (before any worker
 *  starts). "" on success; otherwise why the resume is refused
 *  (missing or corrupt spill segment) — reported as
 *  "resume-mismatch", like a fingerprint disagreement. */
std::string
Engine::restoreFrom(const CheckpointData &d)
{
    util::Stopwatch sw;
    result_.resumedFromCheckpoint = true;
    explored_.store(d.header.statesExplored);
    generated_.store(d.header.statesGenerated);
    fired_.store(d.header.transitionsFired);
    result_.degradedToCompaction = d.header.degraded;
    // A snapshot that references live spill segments resumes in
    // spill mode regardless of this run's flags — the segments are
    // part of the visited set. The directory defaults to where the
    // segments already live.
    uint64_t segBytes = 0;
    if (!d.visitedSegments.empty() || !d.frontierSegments.empty()) {
        tracing_ = false;
        spill_ = true;
        if (!tier_.configured()) {
            std::string dir = opts_.spillDir;
            if (dir.empty()) {
                dir = dirnameOf(d.visitedSegments.empty()
                                    ? d.frontierSegments.front().path
                                    : d.visitedSegments.front().path);
            }
            std::string err = armSpill(dir);
            if (!err.empty())
                return err;
        }
        for (const SpillSegmentRef &ref : d.visitedSegments) {
            std::string err;
            if (!tier_.adoptSegment(ref, &err))
                return err;
            segBytes += ref.bytes;
        }
        tierBytes_.store(tier_.memoryBytes());
    }
    // Pre-size every shard from the snapshot's cardinality so the
    // restore is one pass with no rehashes.
    uint64_t stored = d.header.storedAsHashes ? d.visitedHashes.size()
                                              : d.visitedExact.size();
    for (size_t i = 0; i <= shardMask_; ++i)
        shards_[i].store.reserve(perShard(stored));
    uint64_t n = 0, bytes = 0;
    if (d.header.storedAsHashes) {
        for (uint64_t h : d.visitedHashes) {
            if (shards_[h & shardMask_].store.insertHash(h))
                ++n;
        }
        bytes = n * 8;
    } else {
        for (const std::string &enc : d.visitedExact) {
            uint64_t h = hashState(enc, 0);
            if (shards_[h & shardMask_].store.insert(
                    h, enc.data(), static_cast<uint32_t>(enc.size()))) {
                ++n;
                bytes += enc.size();
            }
        }
        n += tier_.states();
        bytes += segBytes;
    }
    visited_.store(n);
    visitedBytes_.store(bytes);
    if (instr_.on())
        instr_.addBatch(0, bytes, 0);
    // Frontier states are already in the visited set; in tracing mode
    // they become trace roots ("resumed"), so a post-resume
    // counterexample starts at the resume point. Restore order (head
    // pushes, segment adoption, tail pushes) rebuilds the exact FIFO
    // the snapshot recorded.
    for (const SysState &st : d.frontier) {
        if (tracing_) {
            nodes_.push_back(arena_.size());
            arena_.push_back({st, SIZE_MAX, "resumed"});
        } else {
            frontier_.push(SysState(st));
        }
    }
    for (const SpillSegmentRef &ref : d.frontierSegments) {
        std::string err;
        if (!frontier_.adoptSegment(ref, &err))
            return err;
    }
    for (const SysState &st : d.frontierTail)
        frontier_.push(SysState(st));
    pending_ = queuedLocked();
    instr_.noteCheckpointRestore(sw.ms());
    return "";
}

/** Progress sample (sampler thread): engine counters, shard
 *  occupancy and measured memory components. */
obs::ProgressSample
Engine::sample()
{
    constexpr auto rel = std::memory_order_relaxed;
    obs::ProgressSample s;
    instr_.fillSample(s);
    s.statesExplored = explored_.load(rel);
    s.statesGenerated = generated_.load(rel);
    s.transitionsFired = fired_.load(rel);
    s.visitedEntries = visited_.load(rel);
    s.shardCount = shardMask_ + 1;
    uint64_t entries = 0, slots = 0, table = 0;
    for (size_t i = 0; i <= shardMask_; ++i) {
        std::lock_guard<std::mutex> lk(shards_[i].mu);
        const StateStore &st = shards_[i].store;
        s.shardsOccupied += st.size() > 0 ? 1 : 0;
        table += st.memoryBytes();
        entries += st.size();
        slots += st.capacity();
    }
    s.tableLoadFactor = slots ? static_cast<double>(entries) /
                                    static_cast<double>(slots)
                              : 0.0;
    s.tableBytes = table + tierBytes_.load(rel);
    uint64_t avg = avgStateBytes(), mem = 0;
    SpillStats fs;
    {
        std::lock_guard<std::mutex> lk(qMu_);
        s.queueDepth = queuedLocked();
        mem = frontier_.memStates();
        fs = frontier_.stats();
    }
    s.frontierBytes = mem * avg;
    {
        std::lock_guard<std::mutex> lk(arenaMu_);
        s.traceArenaBytes = arena_.size() * avg;
    }
    s.estMemoryBytes = s.tableBytes + s.frontierBytes + s.traceArenaBytes;
    if (spill_) {
        SpillStats vs = tier_.stats();
        s.spilledBytes = vs.spilledBytes + fs.spilledBytes;
        s.spillSegments = vs.segmentsWritten + fs.segmentsWritten;
        s.diskProbes = vs.diskProbes;
        s.diskProbeHits = vs.diskHits;
        s.spillStallMs = static_cast<double>(vs.stallNs + fs.stallNs) / 1e6;
    }
    return s;
}

void
Engine::buildTrace(size_t idx)
{
    std::vector<std::string> rev;
    std::vector<std::string> rev_json;
    while (idx != SIZE_MAX && rev.size() < 200) {
        const TraceNode &n = arena_[idx];
        rev.push_back(n.how + "  =>  " + describeState(sys_, n.state));
        rev_json.push_back("{\"event\": " + obs::jsonQuote(n.how) +
                           ", \"state\": " +
                           describeStateJson(sys_, n.state) + "}");
        idx = n.parent;
    }
    result_.trace.assign(rev.rbegin(), rev.rend());
    result_.traceStepsJson.assign(rev_json.rbegin(), rev_json.rend());
}

/** Assemble the result once every worker has retired. */
CheckResult
Engine::finish()
{
    result_.statesExplored = explored_.load();
    result_.statesGenerated = generated_.load();
    result_.transitionsFired = fired_.load();
    result_.ampleExpansions = ample_.load();
    if (hasError_) {
        result_.errorKind = error_.kind;
        result_.detail = error_.detail;
        result_.hitStateLimit = error_.kind == ErrorKind::StateLimit;
        result_.resumable = errorKindResumable(error_.kind);
        if (tracing_) {
            buildTrace(error_.node);
            if (error_.hasBad) {
                result_.trace.push_back(error_.how + "  =>  " +
                                        describeState(sys_, error_.bad));
                result_.traceStepsJson.push_back(
                    "{\"event\": " + obs::jsonQuote(error_.how) +
                    ", \"state\": " + describeStateJson(sys_, error_.bad) +
                    "}");
            }
        }
    }
    // A resumable abort leaves an artifact with the frontier exactly
    // as the workers left it.
    if (result_.resumable)
        writeCheckpoint();
    result_.ok = !hasError_;
    result_.symmetryReduction = symmetry_;
    result_.partialOrderReduction = expander_.porEnabled();
    result_.hashCompaction = compaction_;
    if (compaction_) {
        // Stern–Dill style bound: expected omitted states is about
        // n^2 / 2^b for n states hashed into b-bit signatures.
        double n = static_cast<double>(result_.statesGenerated);
        result_.omissionProbability = n * n / 1.8446744e19;
    }
    finishPhases(phases_, result_, instr_);
    if (spill_) {
        SpillStats vs = tier_.stats();
        const SpillStats &fs = frontier_.stats();
        result_.spilledToDisk =
            vs.segmentsWritten + fs.segmentsWritten > 0 ||
            tier_.states() > 0;
        result_.spilledBytes = vs.spilledBytes + fs.spilledBytes;
        result_.spillSegmentsWritten =
            vs.segmentsWritten + fs.segmentsWritten;
        result_.diskProbes = vs.diskProbes;
        result_.diskProbeHits = vs.diskHits;
        result_.spillStallMs =
            static_cast<double>(vs.stallNs + fs.stallNs) / 1e6;
        // Segment files outlive the run only while a durable
        // checkpoint references them, or when the run refused to
        // resume from the checkpoint that does.
        bool keep = (result_.resumable && result_.checkpointsWritten > 0) ||
                    result_.errorKind == ErrorKind::ResumeMismatch;
        if (!keep) {
            tier_.removeSegmentFiles();
            frontier_.removeSegmentFiles();
        }
    }
    result_.peakRssBytes = util::peakRssBytes();
    instr_.finalize(result_, wall_.ms(), visited_.load());
    return result_;
}

} // namespace

CheckResult
explore(const System &sys, const CheckOptions &opts, unsigned workers)
{
    return Engine(sys, opts, workers).run();
}

} // namespace hieragen::verif
