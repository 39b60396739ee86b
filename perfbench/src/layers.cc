#include "layers.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "arch/machine.h"
#include "isa/encoding.h"
#include "workloads/workload.h"

namespace perfbench
{

using namespace marionette;

namespace
{

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

std::int64_t
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
        .count();
}

double
maxOf(const std::vector<double> &values)
{
    return values.empty()
               ? 0
               : *std::max_element(values.begin(), values.end());
}

double
geomean(const std::vector<double> &values, const std::vector<double> &w)
{
    double log_sum = 0, weight = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        log_sum += w[i] * std::log(values[i]);
        weight += w[i];
    }
    return weight > 0 ? std::exp(log_sum / weight) : 0;
}

double
geomean(const std::vector<double> &values)
{
    return geomean(values, std::vector<double>(values.size(), 1.0));
}

/** The tail of a serial loop: the slowest kernel's median time.  A
 *  loop of a few suite-sized ops leaves no percentile ten samples
 *  beyond it, and its slowest op mostly measures the host. */
double
slowestMedian(const std::map<std::string, std::vector<double>> &per_kernel)
{
    double slowest = 0;
    for (const auto &[name, values] : per_kernel)
        slowest = std::max(slowest, median(values));
    return slowest;
}

/** Percentile with the ten-beyond rule; windows too short for @p p
 *  fall back to the highest percentile they can support. */
double
percentileOrTail(std::vector<double> values, double p)
{
    if (auto v = percentile(values, p))
        return *v;
    const double tail = tailPercentile(values.size());
    if (tail > 0)
        if (auto v = percentile(values, tail))
            return *v;
    return maxOf(values);
}

std::string
noteOf(const CompileReport &report, const std::string &pass)
{
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == pass)
            return n.message;
    return {};
}

/** Samples a HostSpeed every 100 ms on its own thread until stopped
 *  or destroyed. */
class SpeedSampler
{
  public:
    explicit SpeedSampler(HostSpeed &speed)
        : thread_([this, &speed] {
              std::unique_lock<std::mutex> lock(mutex_);
              while (!stopping_) {
                  lock.unlock();
                  speed.sample();
                  lock.lock();
                  wake_.wait_for(lock, std::chrono::milliseconds(100),
                                 [this] { return stopping_; });
              }
          })
    {}

    ~SpeedSampler() { stop(); }

    SpeedSampler(const SpeedSampler &) = delete;
    SpeedSampler &operator=(const SpeedSampler &) = delete;

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace

MachineConfig
primaryFabric()
{
    MachineConfig big;
    big.rows = 10;
    big.cols = 10;
    big.scratchpadBytes = 512 * 1024;
    big.instrMemBytes = 64 * 1024;
    return big;
}

void
Outcome::fail(const std::string &why)
{
    ++attempted;
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
}

void
Outcome::diverge(const std::string &why)
{
    ++attempted;
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: DIVERGED %s\n", why.c_str());
}

Expectations
parseExpectations(const std::string &text)
{
    Expectations out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string entry = text.substr(pos, end - pos);
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size())
            throw std::invalid_argument("bad expectation '" + entry +
                                        "'");
        Expectation e;
        const std::string pass = entry.substr(eq + 1);
        e.compiles = pass == "ok";
        e.failedPass = e.compiles ? "" : pass;
        out[entry.substr(0, eq)] = e;
        pos = end + 1;
    }
    return out;
}

// ----------------------------------------------------- compile_cold

CompileSuite::CompileSuite(const MachineConfig &fabric,
                           Expectations expectations,
                           std::uint64_t seed)
    : compiler_(fabric), expectations_(std::move(expectations)),
      seed_(seed)
{
}

void
CompileSuite::setup()
{
    std::size_t events = 0;
    for (const Workload *w : allWorkloads()) {
        events += w->profile().trace.runs().size();
        events += w->machineSpec().expectedOutputs.size();
    }
    if (events == 0)
        throw std::runtime_error("workload registry is empty");
}

double
CompileSuite::compileOnce(Tracer &tracer, Outcome &outcome,
                          MetricMap *per_kernel_ms,
                          std::map<std::string, double> *pass_us,
                          HostSpeed *speed)
{
    const std::vector<const Workload *> &all = allWorkloads();
    const std::vector<int> order = visitOrder(
        seed_ + static_cast<std::uint64_t>(round_++),
        static_cast<int>(all.size()));
    std::map<std::string, std::shared_ptr<const CompiledKernel>> built;

    const std::uint64_t suite_id = tracer.reserve();
    const std::int64_t suite_start = tracer.now();
    const auto start = Clock::now();
    double sampling_ms = 0;
    for (int index : order) {
        const Workload &w = *all[static_cast<std::size_t>(index)];
        const std::string name = w.name();
        const std::uint64_t group = tracer.reserve();
        if (speed) {
            const std::int64_t s0 = tracer.now();
            sampling_ms += speed->sample();
            tracer.record({tracer.reserve(), suite_id, group,
                           "host sample", "bench", "main", s0,
                           tracer.now() - s0});
        }
        const std::uint64_t compile_id = tracer.reserve();
        const std::int64_t t0 = tracer.now();
        const auto c0 = Clock::now();
        CompileResult result = compiler_.compile(w);
        const double ms = secondsSince(c0) * 1e3;
        const std::int64_t t1 = tracer.now();
        tracer.record({compile_id, suite_id, group, "compile " + name,
                       "compiler", "main", t0, t1 - t0});
        if (per_kernel_ms)
            (*per_kernel_ms)["compiler.compile_ms." + name] = {ms, "ms"};

        const auto timings = parseTimingsNote(noteOf(result.report,
                                                     "timings"));
        if (!timings) {
            outcome.diverge(name + ": unreadable timings note");
            continue;
        }
        std::int64_t at = t0;
        for (const PassTiming &pt : *timings) {
            tracer.record({tracer.reserve(), compile_id, group,
                           "pass " + pt.pass, "compiler", "main", at,
                           pt.micros});
            at += pt.micros;
            if (pass_us)
                (*pass_us)[pt.pass] += static_cast<double>(pt.micros);
        }

        auto exp = expectations_.find(name);
        if (exp == expectations_.end()) {
            outcome.diverge(name + ": no committed coverage expectation");
            continue;
        }
        if (result.ok() != exp->second.compiles ||
            result.report.failedPass != exp->second.failedPass) {
            outcome.diverge(name + ": compile status '" +
                            (result.ok() ? std::string("ok")
                                         : result.report.failedPass) +
                            "' differs from the expected '" +
                            (exp->second.compiles
                                 ? std::string("ok")
                                 : exp->second.failedPass) +
                            "'");
            continue;
        }
        if (result.ok()) {
            const std::int64_t e0 = tracer.now();
            std::vector<std::uint32_t> bytes =
                encodeProgram(result.kernel->program);
            auto first = firstBytes_.find(name);
            const bool same = first == firstBytes_.end() ||
                              first->second == bytes;
            if (first == firstBytes_.end())
                firstBytes_.emplace(name, std::move(bytes));
            tracer.record({tracer.reserve(), suite_id, group,
                           "check encoding", "bench", "main", e0,
                           tracer.now() - e0});
            if (!same) {
                outcome.diverge(name + ": program bytes differ from "
                                       "the first compile");
                continue;
            }
            built.emplace(name, result.kernel);
        }
        outcome.ok();
    }
    const double suite_ms = secondsSince(start) * 1e3 - sampling_ms;
    tracer.record({suite_id, 0, 0, "compile suite", "bench", "main",
                   suite_start, tracer.now() - suite_start});

    kernels_.clear();
    for (const Workload *w : all) {
        auto it = built.find(w->name());
        if (it != built.end())
            kernels_.push_back(it->second);
    }
    return suite_ms;
}

Measurement
CompileSuite::measure(double seconds, Tracer &tracer, Outcome &outcome,
                      HostSpeed &speed)
{
    Measurement m;
    m.startMicros = tracer.now();
    std::vector<double> suite_ms;
    std::map<std::string, std::vector<double>> kernel_ms;
    std::map<std::string, std::vector<double>> pass_ms;
    const std::uint64_t attempted_before = outcome.attempted;
    const std::uint64_t failed_before = outcome.failed;

    const auto start = Clock::now();
    for (;;) {
        MetricMap per_kernel;
        std::map<std::string, double> pass_us;
        suite_ms.push_back(compileOnce(tracer, outcome, &per_kernel,
                                       &pass_us, &speed));
        for (const auto &[name, metric] : per_kernel)
            kernel_ms[name].push_back(metric.value);
        for (const auto &[pass, us] : pass_us)
            pass_ms[pass].push_back(us / 1e3);
        const double elapsed = secondsSince(start);
        if (elapsed + suite_ms.back() / 1e3 > seconds)
            break;
    }
    const double wall = secondsSince(start);
    m.wallMicros = static_cast<std::int64_t>(wall * 1e6);
    m.ops = suite_ms.size();
    m.hostFactor = speed.factor();

    std::vector<double> scheduled;
    for (const auto &k : kernels_)
        scheduled.push_back(k->report.scheduledCycleEstimate);
    const auto ok_ops = static_cast<double>(
        (outcome.attempted - attempted_before) -
        (outcome.failed - failed_before));
    m.endToEnd["op_p50_ms"] = {median(suite_ms), "ms"};
    m.endToEnd["op_tail_ms"] = {slowestMedian(kernel_ms), "ms"};
    double busy_ms = 0;
    for (double ms : suite_ms)
        busy_ms += ms;
    m.endToEnd["goodput_per_s"] = {ok_ops / (busy_ms / 1e3), "1/s"};
    m.endToEnd["cycles_geomean"] = {geomean(scheduled), "cycles"};
    m.endToEnd["kernels_ok"] = {static_cast<double>(kernels_.size()),
                                "count"};
    for (const auto &[name, values] : kernel_ms)
        m.layers[name] = {median(values), "ms"};
    for (const auto &[pass, values] : pass_ms)
        m.layers["compiler.pass_ms." + pass] = {median(values), "ms"};
    return m;
}

// ------------------------------------------------------ kernels_sim

KernelSim::KernelSim(const MachineConfig &fabric,
                     Expectations expectations, std::uint64_t seed)
    : fabric_(fabric), suite_(fabric, std::move(expectations), seed),
      seed_(seed)
{
}

void
KernelSim::setup(Tracer &tracer, Outcome &outcome)
{
    setupLayers_.clear();
    std::map<std::string, double> pass_us;
    suite_.compileOnce(tracer, outcome, &setupLayers_, &pass_us);
    for (const auto &[pass, us] : pass_us)
        setupLayers_["compiler.pass_ms." + pass] = {us / 1e3, "ms"};
}

Measurement
KernelSim::measure(double seconds, Tracer &tracer, Outcome &outcome,
                   HostSpeed &speed)
{
    struct PerKernel
    {
        std::vector<double> mcyclesPerS;
        std::vector<double> opMs;
        Cycle cycles = 0;
        bool allExact = true;
        FastForwardStats ff;
        CongestionReport congestion;
    };
    const auto &kernels = suite_.kernels();
    std::map<std::string, PerKernel> per;
    std::vector<double> pass_ms, prepare_us, validate_us;
    std::uint64_t ok_runs = 0;

    Measurement m;
    m.startMicros = tracer.now();
    const auto start = Clock::now();
    for (std::uint64_t pass = 0;; ++pass) {
        const std::vector<int> order = visitOrder(
            seed_ * 7919 + pass, static_cast<int>(kernels.size()));
        const std::uint64_t pass_id = tracer.reserve();
        const std::int64_t pass_start = tracer.now();
        const auto p0 = Clock::now();
        double prep_sum = 0, valid_sum = 0, sampling_ms = 0;
        for (int index : order) {
            const CompiledKernel &kernel =
                *kernels[static_cast<std::size_t>(index)];
            const std::uint64_t group = tracer.reserve();
            const std::int64_t s0 = tracer.now();
            sampling_ms += speed.sample();
            tracer.record({tracer.reserve(), pass_id, group,
                           "host sample", "bench", "main", s0,
                           tracer.now() - s0});
            const std::uint64_t kernel_id = tracer.reserve();
            const std::int64_t k0 = tracer.now();

            // One machine per kernel run, as the sweeps do: a reused
            // machine keeps the previous kernel's scratchpad words,
            // and HT reads its 'acc' region without initializing it.
            MarionetteMachine machine(fabric_);
            const auto t0 = Clock::now();
            kernel.prepare(machine);
            const auto t1 = Clock::now();
            const RunResult run = machine.run(kernel.cycleBudget);
            const auto t2 = Clock::now();
            const std::string mismatch = kernel.validate(machine, run);
            const auto t3 = Clock::now();

            const std::int64_t a = tracer.at(t0), b = tracer.at(t1),
                               c = tracer.at(t2), d = tracer.at(t3);
            tracer.record({tracer.reserve(), kernel_id, group, "prepare",
                           "arch", "main", a, b - a});
            tracer.record({tracer.reserve(), kernel_id, group, "run",
                           "arch", "main", b, c - b});
            tracer.record({tracer.reserve(), kernel_id, group,
                           "validate", "arch", "main", c, d - c});
            tracer.record({kernel_id, pass_id, group,
                           "kernel " + kernel.workload, "bench", "main",
                           k0, tracer.now() - k0});

            prep_sum += static_cast<double>(microsBetween(t0, t1));
            valid_sum += static_cast<double>(microsBetween(t2, t3));
            PerKernel &pk = per[kernel.workload];
            const double run_s =
                std::chrono::duration<double>(t2 - t1).count();
            pk.mcyclesPerS.push_back(
                static_cast<double>(run.cycles) / run_s / 1e6);
            pk.opMs.push_back(
                std::chrono::duration<double, std::milli>(t3 - t0)
                    .count());
            if (pk.cycles != 0 && pk.cycles != run.cycles)
                outcome.diverge(kernel.workload +
                                ": cycle count changed between passes");
            pk.cycles = run.cycles;
            pk.ff = machine.fastForwardStats();
            pk.congestion = machine.congestion();
            if (!run.ok()) {
                pk.allExact = false;
                outcome.fail(kernel.workload + ": " +
                             runErrorName(run.error) + " " +
                             run.errorDetail);
            } else if (!mismatch.empty()) {
                pk.allExact = false;
                outcome.diverge(mismatch);
            } else {
                ++ok_runs;
                outcome.ok();
            }
        }
        pass_ms.push_back(secondsSince(p0) * 1e3 - sampling_ms);
        prepare_us.push_back(prep_sum);
        validate_us.push_back(valid_sum);
        tracer.record({pass_id, 0, 0, "sim pass", "bench", "main",
                       pass_start, tracer.now() - pass_start});
        if (secondsSince(start) + pass_ms.back() / 1e3 > seconds)
            break;
    }
    const double wall = secondsSince(start);
    m.wallMicros = static_cast<std::int64_t>(wall * 1e6);
    m.ops = pass_ms.size();
    m.hostFactor = speed.factor();

    std::vector<double> cycles;
    std::map<std::string, std::vector<double>> kernel_ms;
    double exact = 0;
    for (const auto &[name, pk] : per) {
        kernel_ms[name] = pk.opMs;
        cycles.push_back(static_cast<double>(pk.cycles));
        exact += pk.allExact ? 1 : 0;
        const double c = static_cast<double>(pk.cycles);
        m.layers["arch.cycles." + name] = {c, "cycles"};
        m.layers["arch.mcycles_per_s." + name] = {median(pk.mcyclesPerS),
                                                  "Mcycles/s"};
        m.layers["sim.ff.skipped_frac." + name] = {
            c > 0 ? static_cast<double>(pk.ff.cyclesSkipped) / c : 0,
            "fraction"};
        m.layers["pe.stall_operand." + name] = {
            static_cast<double>(pk.congestion.stallOperand), "cycles"};
        m.layers["pe.stall_credit." + name] = {
            static_cast<double>(pk.congestion.stallCredit), "cycles"};
        m.layers["pe.stall_mem." + name] = {
            static_cast<double>(pk.congestion.stallMem), "cycles"};
        m.layers["pe.stall_gate." + name] = {
            static_cast<double>(pk.congestion.stallGate), "cycles"};
        m.layers["net.max_link_load." + name] = {
            static_cast<double>(pk.congestion.maxLinkLoad), "words"};
    }
    m.layers["arch.prepare_us"] = {median(prepare_us), "us"};
    m.layers["arch.validate_us"] = {median(validate_us), "us"};

    m.endToEnd["op_p50_ms"] = {median(pass_ms), "ms"};
    m.endToEnd["op_tail_ms"] = {slowestMedian(kernel_ms), "ms"};
    double busy_ms = 0;
    for (double ms : pass_ms)
        busy_ms += ms;
    m.endToEnd["goodput_per_s"] = {
        static_cast<double>(ok_runs) / (busy_ms / 1e3), "1/s"};
    m.endToEnd["cycles_geomean"] = {geomean(cycles), "cycles"};
    m.endToEnd["kernels_ok"] = {exact, "count"};
    return m;
}

// ------------------------------------------------------- serve_open

const std::vector<MixEntry> &
serveMix()
{
    static const std::vector<MixEntry> mix = {
        {"SI", 0.35}, {"CRC", 0.20}, {"ADPCM", 0.10}, {"SCD", 0.35}};
    return mix;
}

ServeOpen::ServeOpen(const MachineConfig &fabric, std::uint64_t seed)
    : fabric_(fabric), seed_(seed)
{
}

ServeOpen::~ServeOpen() = default;

void
ServeOpen::setup(Outcome &outcome)
{
    core_.reset();
    serve::ServeOptions options;
    options.fabric = fabric_;
    options.fabrics = 2;
    options.regionsPerFabric = 1;
    // Deep enough that a 40 rps Poisson burst never bounces; the
    // ladder's overload rungs show their backlog as latency.
    options.queueCapacity = 4096;
    core_ = std::make_unique<serve::ServeCore>(options);

    // Warm both caches and every lane: each lane should have run
    // each mix kernel once before the window opens, so the window
    // sees no first-run costs.  Pairs of requests go in together so
    // both lanes pick one; a few rounds cover the rare case where
    // one lane takes both.
    std::set<std::pair<int, std::string>> warm;
    const std::size_t want =
        serveMix().size() * static_cast<std::size_t>(core_->lanes());
    for (int round = 0; round < 8 && warm.size() < want; ++round) {
        for (const MixEntry &entry : serveMix()) {
            serve::ServeRequest request;
            request.tenant = "warmup";
            request.workload = entry.workload;
            request.options.unrollFactor = 1;
            std::future<serve::ServeResponse> pair[2] = {
                core_->submit(request), core_->submit(request)};
            for (auto &f : pair) {
                const serve::ServeResponse r = f.get();
                if (!r.served)
                    outcome.fail(std::string("warm-up ") +
                                 entry.workload + ": " + r.error);
                else if (!r.validation.empty())
                    outcome.diverge(r.validation);
                else
                    outcome.ok();
                warm.insert({r.lane, entry.workload});
            }
        }
    }
}

Measurement
ServeOpen::measure(const ServeLoad &load, Tracer &tracer,
                   Outcome &outcome, HostSpeed &speed)
{
    const std::vector<MixEntry> &mix = serveMix();
    std::vector<double> weights;
    for (const MixEntry &e : mix)
        weights.push_back(e.weight);
    const std::vector<Arrival> schedule =
        poissonSchedule(seed_, load.rate,
                        load.requests, weights, kTenants);

    struct Sent
    {
        std::size_t index = 0;
        std::int64_t submitMicros = 0;
        std::future<serve::ServeResponse> future;
    };
    std::vector<Sent> sent;
    sent.reserve(schedule.size());
    std::vector<double> lag_ms;
    const std::uint64_t hits0 = core_->programs().hits();
    const std::uint64_t misses0 = core_->programs().misses();
    const auto snaps0 = core_->snapshotCounters();

    SpeedSampler sampler(speed);

    Measurement m;
    m.startMicros = tracer.now();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Arrival &a = schedule[i];
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(a.dueMicros));
        serve::ServeRequest request;
        request.tenant = "t" + std::to_string(a.tenant);
        request.workload = mix[static_cast<std::size_t>(a.mixIndex)]
                               .workload;
        request.options.unrollFactor = 1;

        Sent s;
        s.index = i;
        const auto before = Clock::now();
        const bool accepted = core_->trySubmit(request, s.future);
        const auto after = Clock::now();
        s.submitMicros = microsBetween(start, before);
        lag_ms.push_back(
            static_cast<double>(s.submitMicros - a.dueMicros) / 1e3);
        tracer.record({tracer.reserve(), 0, 0, "trySubmit", "serve",
                       "generator", m.startMicros + s.submitMicros,
                       microsBetween(before, after)});
        if (!accepted) {
            outcome.fail("request " + std::to_string(i) + " (" +
                         request.workload + ") rejected");
            continue;
        }
        sent.push_back(std::move(s));
    }
    core_->drain();
    const double wall = secondsSince(start);
    sampler.stop();
    m.wallMicros = static_cast<std::int64_t>(wall * 1e6);
    m.ops = schedule.size();
    m.hostFactor = speed.factor();

    std::vector<double> latency_ms, wait_ms, service_ms;
    std::vector<std::pair<std::int64_t, int>> queue_edges;
    std::map<std::string, Cycle> cycles;
    std::map<std::string, bool> exact;
    double busy_us = 0, good = 0;
    for (Sent &s : sent) {
        const serve::ServeResponse r = s.future.get();
        const Arrival &a = schedule[s.index];
        const std::string &name =
            mix[static_cast<std::size_t>(a.mixIndex)].workload;
        const auto queue = static_cast<std::int64_t>(r.queueMicros);
        const auto service =
            static_cast<std::int64_t>(r.serviceMicros);
        const std::int64_t lag = s.submitMicros - a.dueMicros;
        latency_ms.push_back(
            static_cast<double>(lag + queue + service) / 1e3);
        wait_ms.push_back(static_cast<double>(queue) / 1e3);
        service_ms.push_back(static_cast<double>(service) / 1e3);
        busy_us += static_cast<double>(service);
        queue_edges.push_back({s.submitMicros, +1});
        queue_edges.push_back({s.submitMicros + queue, -1});

        if (tracer.enabled()) {
            const std::int64_t due = m.startMicros + a.dueMicros;
            const std::int64_t sub = m.startMicros + s.submitMicros;
            const std::uint64_t group = tracer.reserve();
            const std::uint64_t root = tracer.reserve();
            tracer.record({root, 0, group, "request " + name, "serve",
                           "", due, lag + queue + service});
            tracer.record({tracer.reserve(), root, group, "submit lag",
                           "bench", "", due, lag});
            tracer.record({tracer.reserve(), root, group, "queue wait",
                           "serve", "", sub, queue});
            tracer.record({tracer.reserve(), root, group,
                           "service " + name, "serve",
                           "lane" + std::to_string(r.lane),
                           sub + queue, service});
        }

        if (!r.served) {
            exact[name] = false;
            outcome.fail("request " + std::to_string(s.index) + " (" +
                         name + "): " + r.error);
        } else if (!r.validation.empty()) {
            exact[name] = false;
            outcome.diverge(r.validation);
        } else {
            if (cycles.count(name) && cycles[name] != r.run.cycles)
                outcome.diverge(name + ": cycle count differs between "
                                       "requests");
            cycles[name] = r.run.cycles;
            exact.emplace(name, true);
            good += 1;
            outcome.ok();
        }
    }

    // Peak queue depth from the returned intervals: request i sat
    // in the queue from its submit until its service began.
    std::sort(queue_edges.begin(), queue_edges.end());
    int depth = 0, depth_max = 0;
    for (const auto &edge : queue_edges)
        depth_max = std::max(depth_max, depth += edge.second);

    std::vector<double> mix_cycles, mix_weights;
    double kernels_ok = 0;
    for (const MixEntry &e : mix) {
        auto it = cycles.find(e.workload);
        if (it == cycles.end())
            continue;
        mix_cycles.push_back(static_cast<double>(it->second));
        mix_weights.push_back(e.weight);
        kernels_ok += exact[e.workload] ? 1 : 0;
    }

    const double hits =
        static_cast<double>(core_->programs().hits() - hits0);
    const double misses =
        static_cast<double>(core_->programs().misses() - misses0);
    const auto snaps = core_->snapshotCounters();
    const double snap_hits =
        static_cast<double>(snaps.hits - snaps0.hits);
    const double snap_misses =
        static_cast<double>(snaps.misses - snaps0.misses);

    m.endToEnd["op_p50_ms"] = {median(latency_ms), "ms"};
    // The gated tail is p90, which leaves 120 of 1200 samples beyond
    // it: p99 leaves 12, and one slow second of a shared host decides
    // them (its spread across seeds exceeded 0.25 of its median).
    m.endToEnd["op_tail_ms"] = {percentileOrTail(latency_ms, 0.90), "ms"};
    m.latencyP99Ms = percentileOrTail(latency_ms, 0.99);
    m.endToEnd["goodput_per_s"] = {good / wall, "1/s"};
    m.endToEnd["cycles_geomean"] = {geomean(mix_cycles, mix_weights),
                                    "cycles"};
    m.endToEnd["kernels_ok"] = {kernels_ok, "count"};

    m.layers["serve.wait_ms.p50"] = {median(wait_ms), "ms"};
    m.layers["serve.wait_ms.p99"] = {percentileOrTail(wait_ms, 0.99),
                                     "ms"};
    m.layers["serve.service_ms.p50"] = {median(service_ms), "ms"};
    m.layers["serve.service_ms.p99"] = {
        percentileOrTail(service_ms, 0.99), "ms"};
    m.layers["serve.program_cache_hit_frac"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0, "fraction"};
    m.layers["serve.snapshot_hit_frac"] = {
        snap_hits + snap_misses > 0
            ? snap_hits / (snap_hits + snap_misses)
            : 0,
        "fraction"};
    m.layers["serve.lane_busy_frac"] = {
        busy_us / (wall * 1e6 * core_->lanes()), "fraction"};
    m.layers["serve.queue_depth_max"] = {static_cast<double>(depth_max),
                                         "requests"};
    m.layers["serve.generator_lag_ms.p99"] = {
        percentileOrTail(lag_ms, 0.99), "ms"};
    return m;
}

} // namespace perfbench
