/**
 * hgbench: the measured legs of the HieraGen benchmark.
 *
 * Each invocation runs one leg and prints one JSON object as the last
 * line of stdout. perfbench/run.py spawns every leg as its own child
 * process, so the peak resident set wait4() reports for it belongs to
 * that leg alone, and it derives the end-to-end and per-layer metrics
 * and every correctness check from these objects.
 *
 *   hgbench gen --seconds S --min-rounds N --seed N --trace 0|1
 *       The paper's tool flow over the 150-protocol matrix, repeated
 *       in rounds (in a seeded order): compile both SSP texts,
 *       generate, lint the four machines, emit Murphi.
 *   hgbench gen-check
 *       Verify every matrix protocol at 1H+1L (untimed check).
 *   hgbench verify --lower L --higher H --mode M --h N --l N
 *                  [--threads T] [--max-memory B --spill-dir D]
 *                  [--checkpoint P --interval S] [--max-states N]
 *                  [--resume P] [--symmetry 0] [--mutant 1]
 *                  [--trace 1] [--journal P]
 *       Generate one protocol, then run one VerifySession.
 *
 * Only the stable surfaces are used: api::generate, api::
 * VerifySession, dsl::compileProtocol, lintMachine and murphi::
 * emitHier. No engine-internal switch is set; the options a leg
 * touches are the ones a user of the facade sets (threads, memory
 * cap, spill dir, checkpoint cadence, state cap, resume), plus
 * symmetry off for the reduction-bound check and phase timing on
 * traced runs.
 */

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/hieragen.hh"
#include "dsl/lower.hh"
#include "fsm/lint.hh"
#include "murphi/emit.hh"
#include "obs/metrics.hh"
#include "protocols/registry.hh"
#include "util/errors.hh"

using namespace hieragen;

namespace
{

double
monoNow()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Flat JSON object builder for the one-line leg reports. */
class Obj
{
  public:
    Obj &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ",") + quote(k) + ":" + v;
        return *this;
    }
    Obj &put(const std::string &k, double v) { return raw(k, num(v)); }
    Obj &
    put(const std::string &k, uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Obj &put(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Obj &str(const std::string &k, const std::string &v)
    {
        return raw(k, quote(v));
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

/** --key value pairs; every option takes a value. */
std::map<std::string, std::string>
parseOpts(int argc, char **argv, int first)
{
    std::map<std::string, std::string> o;
    for (int i = first; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::runtime_error("bad option: " + k);
        o[k.substr(2)] = argv[++i];
    }
    return o;
}

std::string
opt(const std::map<std::string, std::string> &o, const std::string &k,
    const std::string &dflt = "")
{
    auto it = o.find(k);
    return it == o.end() ? dflt : it->second;
}

ConcurrencyMode
parseMode(const std::string &m)
{
    if (m == "atomic")
        return ConcurrencyMode::Atomic;
    if (m == "stalling")
        return ConcurrencyMode::Stalling;
    if (m == "nonstalling")
        return ConcurrencyMode::NonStalling;
    throw std::runtime_error("unknown mode: " + m);
}

/** The MSI cache in which S acknowledges Inv but keeps its copy. */
std::string
mutateSIgnoresInv(std::string text)
{
    const std::string from = "forward(S, Inv) { send InvAck to req; } -> I;";
    const std::string to = "forward(S, Inv) { send InvAck to req; } -> S;";
    size_t at = text.find(from);
    if (at == std::string::npos)
        throw std::runtime_error("mutant site not found in SSP text");
    return text.replace(at, from.size(), to);
}

api::GenerateResult
generateFrom(const std::string &lowerText, const std::string &higherText,
             ConcurrencyMode mode, bool optimized)
{
    api::GenerateRequest req;
    req.ownLower(dsl::compileProtocol(lowerText));
    req.ownHigher(dsl::compileProtocol(higherText));
    req.mode = mode;
    req.optimizedCompat = optimized;
    api::GenerateResult g = api::generate(req);
    if (!g.ok)
        throw std::runtime_error("generation failed at pass " +
                                 g.failedPass + ": " + g.lintReport);
    return g;
}

/** Default options for verifying a protocol of @p mode: the Step-1
 *  atomic protocol is verified with serialized transactions. */
verif::CheckOptions
checkOptionsFor(ConcurrencyMode mode, unsigned threads)
{
    verif::CheckOptions o;
    o.numThreads = threads;
    o.atomicTransactions = mode == ConcurrencyMode::Atomic;
    return o;
}

/** Pass name -> ms from GenerateResult::statsJson. */
std::vector<std::pair<std::string, double>>
passTimes(const std::string &statsJson)
{
    std::vector<std::pair<std::string, double>> out;
    const std::string key = "{\"name\": \"";
    const std::string msKey = "\", \"ms\": ";
    size_t at = 0;
    while ((at = statsJson.find(key, at)) != std::string::npos) {
        at += key.size();
        size_t end = statsJson.find('"', at);
        if (end == std::string::npos)
            break;
        if (statsJson.compare(end, msKey.size(), msKey) == 0) {
            out.emplace_back(statsJson.substr(at, end - at),
                             std::atof(statsJson.c_str() + end +
                                       msKey.size()));
        }
        at = end;
    }
    return out;
}

// ---------------------------------------------------------------
// generate-matrix

struct MatrixItem
{
    std::string lower, higher, mode;
    bool optimized;
    std::string
    name() const
    {
        return lower + "/" + higher + "/" + mode +
               (optimized ? "/opt" : "/cons");
    }
};

std::vector<MatrixItem>
matrix()
{
    static const char *kSsps[] = {"MI", "MSI", "MESI", "MOSI", "MOESI"};
    static const char *kModes[] = {"atomic", "stalling", "nonstalling"};
    std::vector<MatrixItem> items;
    for (const char *lo : kSsps)
        for (const char *hi : kSsps)
            for (const char *m : kModes)
                for (bool opt : {false, true})
                    items.push_back({lo, hi, m, opt});
    return items;
}

int
cmdGen(const std::map<std::string, std::string> &o)
{
    const double seconds = std::atof(opt(o, "seconds", "1").c_str());
    const int minRounds = std::atoi(opt(o, "min-rounds", "1").c_str());
    const bool traced = opt(o, "trace", "0") == "1";
    // The seed fixes the order the matrix is walked in each round.
    std::vector<MatrixItem> items = matrix();
    std::mt19937_64 rng(std::strtoull(opt(o, "seed", "1").c_str(),
                                      nullptr, 10));
    std::shuffle(items.begin(), items.end(), rng);

    // Set-up: the SSP texts resolved and the first protocol taken
    // from text to Murphi, cold.
    std::vector<std::pair<std::string, std::string>> texts;
    for (const MatrixItem &it : items)
        texts.emplace_back(protocols::builtinSource(it.lower),
                           protocols::builtinSource(it.higher));
    {
        api::GenerateResult g =
            generateFrom(texts[0].first, texts[0].second,
                         parseMode(items[0].mode), items[0].optimized);
        (void)murphi::emitHier(g.protocol);
    }
    const double setupMono = monoNow();

    std::vector<std::string> firstMurphi(items.size());
    std::vector<double> genUs, roundS, tracedRoundS, untracedRoundS;
    std::vector<double> compileUs, generateUs, lintUs, emitUs;
    std::map<std::string, double> passMsTotal;
    std::string machines = "[";
    uint64_t lintIssues = 0, murphiMismatches = 0, murphiBytes = 0;
    uint64_t protocolsDone = 0;
    int rounds = 0;

    const double start = monoNow();
    while (rounds < minRounds || monoNow() - start < seconds) {
        // Traced runs alternate untraced and traced rounds so the
        // tracing overhead is measured within one process.
        const bool traceRound = traced && rounds % 2 == 1;
        const double r0 = monoNow();
        for (size_t i = 0; i < items.size(); ++i) {
            const MatrixItem &it = items[i];
            const double t0 = monoNow();
            Protocol lo = dsl::compileProtocol(texts[i].first);
            const double t1 = monoNow();
            Protocol hi = dsl::compileProtocol(texts[i].second);
            const double t2 = monoNow();
            api::GenerateRequest req;
            req.ownLower(std::move(lo)).ownHigher(std::move(hi));
            req.mode = parseMode(it.mode);
            req.optimizedCompat = it.optimized;
            api::GenerateResult g = api::generate(req);
            if (!g.ok)
                throw std::runtime_error("generation failed: " +
                                         it.name());
            const double t3 = monoNow();
            for (const Machine *m : g.protocol.machines())
                lintIssues += lintMachine(g.protocol.msgs, *m).size();
            const double t4 = monoNow();
            std::string text = murphi::emitHier(g.protocol);
            const double t5 = monoNow();

            genUs.push_back((t5 - t0) * 1e6);
            ++protocolsDone;
            if (rounds == 0) {
                firstMurphi[i] = std::move(text);
                murphiBytes += firstMurphi[i].size();
                const Machine &dc = g.protocol.dirCache;
                machines += std::string(i ? "," : "") + "[" +
                            quote(it.lower) + "," + quote(it.higher) +
                            "," + quote(it.mode) + "," +
                            (it.optimized ? "true" : "false") + "," +
                            std::to_string(dc.numStates()) + "," +
                            std::to_string(dc.numTransitions()) + "]";
            } else if (text != firstMurphi[i]) {
                ++murphiMismatches;
            }
            if (traceRound) {
                compileUs.push_back((t1 - t0) * 1e6);
                compileUs.push_back((t2 - t1) * 1e6);
                generateUs.push_back((t3 - t2) * 1e6);
                lintUs.push_back((t4 - t3) * 1e6);
                emitUs.push_back((t5 - t4) * 1e6);
                for (const auto &[pass, ms] : passTimes(g.statsJson))
                    passMsTotal[pass] += ms;
            }
        }
        const double rs = monoNow() - r0;
        roundS.push_back(rs);
        (traceRound ? tracedRoundS : untracedRoundS).push_back(rs);
        ++rounds;
    }

    Obj out;
    out.put("setup_mono", setupMono)
        .put("rounds", static_cast<uint64_t>(rounds))
        .put("protocols", protocolsDone)
        .raw("gen_us", numList(genUs))
        .raw("round_s", numList(roundS))
        .put("lint_issues", lintIssues)
        .put("murphi_mismatches", murphiMismatches)
        .put("murphi_bytes_per_round", murphiBytes)
        .raw("machines", machines + "]");
    if (traced) {
        std::string passes = "{";
        for (const auto &[pass, ms] : passMsTotal)
            passes += (passes.size() > 1 ? "," : "") + quote(pass) + ":" +
                      num(ms / static_cast<double>(tracedRoundS.size()));
        out.raw("compile_us", numList(compileUs))
            .raw("generate_us", numList(generateUs))
            .raw("lint_us", numList(lintUs))
            .raw("emit_us", numList(emitUs))
            .raw("pass_ms_per_round", passes + "}")
            .raw("traced_round_s", numList(tracedRoundS))
            .raw("untraced_round_s", numList(untracedRoundS));
    }
    std::cout << out.text() << std::endl;
    return 0;
}

int
cmdGenCheck()
{
    std::string rows = "[";
    bool first = true;
    for (const MatrixItem &it : matrix()) {
        ConcurrencyMode mode = parseMode(it.mode);
        api::GenerateResult g =
            generateFrom(protocols::builtinSource(it.lower),
                         protocols::builtinSource(it.higher), mode,
                         it.optimized);
        api::VerifySession s = api::VerifySession::hier(
            g.protocol, 1, 1, checkOptionsFor(mode, 1));
        const verif::CheckResult &r = s.run();
        rows += std::string(first ? "" : ",") + "[" + quote(it.name()) +
                "," + (r.ok ? "true" : "false") + "," +
                quote(errorKindName(r.errorKind)) + "," +
                std::to_string(r.statesExplored) + "]";
        first = false;
    }
    std::cout << Obj().raw("verdicts", rows + "]").text() << std::endl;
    return 0;
}

// ---------------------------------------------------------------
// verify

int
cmdVerify(const std::map<std::string, std::string> &o)
{
    const ConcurrencyMode mode = parseMode(opt(o, "mode", "nonstalling"));
    const unsigned threads =
        static_cast<unsigned>(std::atoi(opt(o, "threads", "1").c_str()));
    const bool traced = opt(o, "trace", "0") == "1";

    std::string lowerText = protocols::builtinSource(opt(o, "lower", "MSI"));
    if (opt(o, "mutant", "0") == "1")
        lowerText = mutateSIgnoresInv(lowerText);
    const double c0 = monoNow();
    Protocol lo = dsl::compileProtocol(lowerText);
    Protocol hi = dsl::compileProtocol(
        protocols::builtinSource(opt(o, "higher", "MSI")));
    const double c1 = monoNow();
    api::GenerateRequest req;
    req.ownLower(std::move(lo)).ownHigher(std::move(hi));
    req.mode = mode;
    api::GenerateResult g = api::generate(req);
    if (!g.ok)
        throw std::runtime_error("generation failed at " + g.failedPass);
    const double c2 = monoNow();

    api::VerifySession s = api::VerifySession::hier(
        g.protocol, std::atoi(opt(o, "h", "2").c_str()),
        std::atoi(opt(o, "l", "2").c_str()), checkOptionsFor(mode, threads));
    if (o.count("max-memory"))
        s.memoryLimit(std::strtoull(opt(o, "max-memory").c_str(),
                                    nullptr, 10));
    if (o.count("spill-dir"))
        s.spillTo(opt(o, "spill-dir"));
    if (o.count("checkpoint"))
        s.checkpointTo(opt(o, "checkpoint"),
                       std::atof(opt(o, "interval", "30").c_str()));
    if (o.count("max-states"))
        s.options().maxStates =
            std::strtoull(opt(o, "max-states").c_str(), nullptr, 10);
    if (opt(o, "symmetry", "1") == "0")
        s.options().symmetryReduction = false;
    if (o.count("resume") && !s.resumeFrom(opt(o, "resume")))
        throw std::runtime_error("resume refused: " + s.error());
    obs::MetricsRegistry reg;
    obs::Telemetry tel;
    if (traced) {
        tel.metrics = &reg;
        s.telemetry(&tel);
        s.options().phaseTiming = threads == 1;
        if (o.count("journal") && !s.journalTo(opt(o, "journal")))
            throw std::runtime_error("journal: " + s.error());
    }
    const double setupMono = monoNow();

    const double v0 = monoNow();
    const verif::CheckResult &r = s.run();
    const double v1 = monoNow();

    Obj out;
    out.put("setup_mono", setupMono)
        .put("verify_s", v1 - v0)
        .put("ok", r.ok)
        .str("error_kind", errorKindName(r.errorKind))
        .put("states_explored", r.statesExplored)
        .put("states_generated", r.statesGenerated)
        .put("transitions_fired", r.transitionsFired)
        .put("trace_steps", static_cast<uint64_t>(r.trace.size()))
        .put("symmetry", r.symmetryReduction)
        .put("resumable", r.resumable)
        .put("resumed", r.resumedFromCheckpoint)
        .put("checkpoints_written", r.checkpointsWritten)
        .put("checkpoint_bytes", r.checkpointBytes)
        .put("spilled", r.spilledToDisk)
        .put("spilled_bytes", r.spilledBytes)
        .put("spill_segments", r.spillSegmentsWritten)
        .put("disk_probes", r.diskProbes)
        .put("disk_probe_hits", r.diskProbeHits)
        .put("spill_stall_ms", r.spillStallMs)
        .put("compile_us", (c1 - c0) * 1e6 / 2.0)
        .put("generate_us", (c2 - c1) * 1e6);
    if (traced) {
        out.put("phase_timing", r.phases.enabled)
            .put("expand_ms", r.phases.expandMs)
            .put("encode_ms", r.phases.encodeMs)
            .put("canonicalize_ms", r.phases.canonicalizeMs)
            .put("insert_ms", r.phases.insertMs)
            .put("dedup_hit_rate", reg.gaugeValue("checker.dedup_hit_rate"))
            .put("visited_bytes", reg.counterValue("checker.visited_bytes"))
            .put("restore_ms", reg.gaugeValue("checkpoint.restore_ms"));
    }
    std::cout << out.text() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: hgbench gen|gen-check|verify "
                     "[--key value ...]\n";
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "gen")
            return cmdGen(parseOpts(argc, argv, 2));
        if (cmd == "gen-check")
            return cmdGenCheck();
        if (cmd == "verify")
            return cmdVerify(parseOpts(argc, argv, 2));
    } catch (const std::exception &e) {
        std::cerr << "hgbench " << cmd << ": " << e.what() << "\n";
        return 1;
    }
    std::cerr << "hgbench: unknown command " << cmd << "\n";
    return 2;
}
