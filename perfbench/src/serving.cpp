// Serving workloads: serve_saturated (closed loop) and serve_poisson_mixed
// (open loop, two tenants). The load comes from this file's own generator
// threads, never from serve::run_load.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "axnn/kernels/plan.hpp"
#include "axnn/serve/engine.hpp"
#include "axnn/tensor/buffer_pool.hpp"
#include "bench.hpp"
#include "hostprobe.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace perfbench {

namespace serve = axnn::serve;
using axnn::Shape;
using axnn::Tensor;

namespace {

constexpr int kMaxBatch = 8;
constexpr int64_t kMaxDelayUs = 2000;
constexpr int kQueueCapacity = 64;
/// Closed-loop tickets in flight: twice max_batch, so a full batch is always
/// pending while the lane executes the previous one.
constexpr int kWindow = 2 * kMaxBatch;
/// Offered load of serve_poisson_mixed, fixed once: about half of
/// serve_saturated's throughput at the seed commit on a 4-vCPU x86 host. It
/// is never derived from a run, so a faster commit is offered the same load.
constexpr double kPoissonRate = 500.0;
/// Per-request deadline of the open loop (a miss counts as a failure).
constexpr int64_t kDeadlineUs = 100000;
constexpr double kWarmupSeconds = 0.5;
/// Engine::load repetitions; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// One served request in kCheckEvery is compared bit for bit against a
/// direct forward.
constexpr uint64_t kCheckEvery = 32;
constexpr int kReplayReps = 25;
/// Replay every (tenant, batch size) that carried at least this share of
/// the workload's batches.
constexpr double kReplayMinShare = 0.02;
/// Completions per block of the per-block throughput and p50.
constexpr size_t kBlock = 1000;

struct Request {
  int tenant = 0;
  int64_t sample = 0;
  bool check = false;
  bool served = false;  ///< Outcome::kServed and no batch failure
  bool ok = false;      ///< served within its deadline
  int point = 0;
  int batch = 0;
  int top1 = -1;
  double latency_ms = 0;         ///< client-observed
  double engine_latency_ms = 0;  ///< Result::latency_ms
  double submit_us = 0;          ///< time inside Session::submit
  double late_ms = 0;            ///< open loop: generator lateness
  int64_t done_ns = 0;           ///< when the client saw the result
  std::vector<float> logits;     ///< kept for the output check
};

struct Rig {
  std::unique_ptr<serve::Engine> engine;
  std::vector<serve::Session*> tenants;
  std::vector<Tensor> images;  ///< test split, one [C,H,W] tensor per sample
  std::vector<int> labels;
};

struct Window {
  std::vector<Request> reqs;
  int64_t start_ns = 0;
};

Rig load_rig(bool two_tenants, std::vector<double>& setup_s) {
  serve::ModelSpec spec;
  spec.model = axnn::core::ModelKind::kResNet20;
  spec.profile = bench_profile();
  spec.finetune = false;
  spec.plan = "default=trunc5";
  spec.batching.max_batch = kMaxBatch;
  spec.batching.max_delay_us = kMaxDelayUs;
  spec.batching.queue_capacity = kQueueCapacity;
  spec.lanes = 1;

  Rig rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rig.engine.reset();
    const int64_t t0 = now_ns();
    rig.engine = serve::Engine::load(spec);
    rig.tenants = {&rig.engine->session()};
    if (two_tenants) rig.tenants.push_back(&rig.engine->open_session("evoa228", "default=evoa228"));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const auto& test = rig.engine->data().test;
  const Shape chw{test.channels(), test.height(), test.width()};
  for (int64_t i = 0; i < test.size(); ++i) {
    rig.images.push_back(test.slice(i, 1).first.reshaped(chw));
    rig.labels.push_back(test.labels[static_cast<size_t>(i)]);
  }
  return rig;
}

/// Await one ticket and record its result into `q`.
void settle(serve::Session& s, const serve::Ticket& t, Request& q) {
  try {
    const serve::Result r = s.await(t);
    q.served = r.outcome == serve::Outcome::kServed;
    q.ok = q.served && r.deadline_met;
    q.point = r.point;
    q.batch = r.batch_size;
    q.top1 = r.top1;
    q.engine_latency_ms = r.latency_ms;
    if (q.check && q.served) q.logits.assign(r.logits.data(), r.logits.data() + r.logits.numel());
  } catch (const std::exception&) {
    q.served = q.ok = false;
  }
}

/// One thread keeps kWindow tickets in flight on tenant 0: each time it has
/// awaited the oldest it submits a new request, until `seconds` have passed.
Window closed_loop(Rig& rig, uint64_t seed, double seconds, Trace& trace) {
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<int64_t> pick(0, static_cast<int64_t>(rig.images.size()) - 1);
  serve::Session& s = *rig.tenants[0];
  struct InFlight {
    serve::Ticket ticket;
    size_t idx;
    int64_t span;
    int64_t submit_ns;
  };
  std::deque<InFlight> window;
  Window w;
  w.reqs.reserve(static_cast<size_t>(seconds * 4000) + kWindow);
  const auto submit = [&] {
    Request q;
    q.sample = pick(gen);
    q.check = gen() % kCheckEvery == 0;
    const int64_t span = trace.new_id();
    const int64_t t0 = now_ns();
    const serve::Ticket t = s.submit(rig.images[static_cast<size_t>(q.sample)]);
    const int64_t t1 = now_ns();
    q.submit_us = static_cast<double>(t1 - t0) * 1e-3;
    w.reqs.push_back(std::move(q));
    const size_t idx = w.reqs.size() - 1;
    trace.add("serve.submit", t0, t1, trace.new_id(), span, static_cast<int64_t>(idx));
    window.push_back({t, idx, span, t0});
  };

  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; i < kWindow; ++i) submit();
  while (!window.empty()) {
    const InFlight f = window.front();
    window.pop_front();
    Request& q = w.reqs[f.idx];
    const int64_t ta = now_ns();
    settle(s, f.ticket, q);
    const int64_t tr = now_ns();
    q.latency_ms = static_cast<double>(tr - f.submit_ns) * 1e-6;
    q.done_ns = tr;
    const auto req = static_cast<int64_t>(f.idx);
    trace.add("serve.await", ta, tr, trace.new_id(), f.span, req);
    trace.add("request", f.submit_ns, tr, f.span, -1, req);
    if (tr < end) submit();
  }
  w.start_ns = start;
  return w;
}

/// A submit thread sends on a seeded Poisson schedule over every tenant;
/// this thread collects results in submission order. Latency runs from each
/// request's intended send time.
Window open_loop(Rig& rig, uint64_t seed, double seconds, Trace& trace) {
  const std::vector<Arrival> sched =
      poisson_schedule(seed, kPoissonRate, seconds, static_cast<int>(rig.tenants.size()),
                       static_cast<int64_t>(rig.images.size()));
  const size_t n = sched.size();
  std::mt19937_64 gen(seed ^ 0xC4ECull);
  Window w;
  w.reqs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    w.reqs[i].tenant = sched[i].tenant;
    w.reqs[i].sample = sched[i].sample;
    w.reqs[i].check = gen() % kCheckEvery == 0;
  }
  std::vector<serve::Ticket> tickets(n);
  std::vector<OpenLoopStamp> stamps(n);
  std::vector<int64_t> spans(n);
  // Requests published by the submit thread; -1 = it failed and stopped.
  std::atomic<int64_t> published{0};
  std::exception_ptr submit_error;

  const int64_t start = now_ns() + 1000000;
  std::thread submitter([&] {
    try {
      for (size_t i = 0; i < n; ++i) {
        const int64_t due = start + sched[i].due_ns;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        Request& q = w.reqs[i];
        spans[i] = trace.new_id();
        const int64_t ts = now_ns();
        tickets[i] = rig.tenants[static_cast<size_t>(q.tenant)]->submit(
            rig.images[static_cast<size_t>(q.sample)], kDeadlineUs);
        const int64_t te = now_ns();
        stamps[i].intended_ns = due;
        stamps[i].sent_ns = ts;
        q.submit_us = static_cast<double>(te - ts) * 1e-3;
        trace.add("serve.submit", ts, te, trace.new_id(), spans[i], static_cast<int64_t>(i));
        published.store(static_cast<int64_t>(i) + 1, std::memory_order_release);
        published.notify_one();
      }
    } catch (...) {
      submit_error = std::current_exception();
      published.store(-1, std::memory_order_release);
      published.notify_one();
    }
  });

  for (size_t i = 0; i < n; ++i) {
    int64_t p = published.load(std::memory_order_acquire);
    while (p >= 0 && p <= static_cast<int64_t>(i)) {
      published.wait(p, std::memory_order_acquire);
      p = published.load(std::memory_order_acquire);
    }
    if (p < 0) break;
    Request& q = w.reqs[i];
    const int64_t ta = now_ns();
    settle(*rig.tenants[static_cast<size_t>(q.tenant)], tickets[i], q);
    stamps[i].done_ns = now_ns();
    q.latency_ms = stamps[i].latency_ms();
    q.late_ms = stamps[i].lateness_ms();
    q.done_ns = stamps[i].done_ns;
    const auto req = static_cast<int64_t>(i);
    trace.add("serve.await", ta, stamps[i].done_ns, trace.new_id(), spans[i], req);
    trace.add("request", stamps[i].intended_ns, stamps[i].done_ns, spans[i], -1, req);
  }
  submitter.join();
  if (submit_error) std::rethrow_exception(submit_error);
  w.start_ns = start;
  return w;
}

/// Wait until the watchdog has readmitted every lane it quarantined. A lane
/// quarantined near the end of the window (a host stall longer than its
/// batch budget) keeps running probation probes on the lane model after
/// drain() returns, and the output checks and the replay use that model
/// directly.
void await_healthy_lanes(serve::Engine& engine) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.stats().lanes_quarantined > 0) {
    if (std::chrono::steady_clock::now() > give_up)
      throw std::runtime_error("a serving lane stayed quarantined after the window");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Compare the kept logits bit for bit against a direct single-sample
/// forward on lane 0 under the tenant's exec context. Returns mismatches.
int64_t check_outputs(Rig& rig, std::vector<Request>& reqs, Report& rep) {
  std::vector<int64_t> checked(rig.tenants.size(), 0);
  int64_t bad = 0;
  for (Request& q : reqs) {
    if (!q.check || !q.served) continue;
    const Tensor& img = rig.images[static_cast<size_t>(q.sample)];
    const Tensor x = img.reshaped(Shape{1, img.shape()[0], img.shape()[1], img.shape()[2]});
    serve::Session& s = *rig.tenants[static_cast<size_t>(q.tenant)];
    const Tensor y = rig.engine->model(0).forward(x, s.exec_context(0, q.point));
    ++checked[static_cast<size_t>(q.tenant)];
    if (static_cast<size_t>(y.numel()) != q.logits.size() ||
        std::memcmp(y.data(), q.logits.data(), q.logits.size() * sizeof(float)) != 0) {
      ++bad;
      q.ok = false;
    }
  }
  for (size_t t = 0; t < checked.size(); ++t) {
    rep.info["output_checks." + rig.tenants[t]->name()] = static_cast<double>(checked[t]);
    if (checked[t] == 0) rep.errors.push_back("no output check for tenant " + rig.tenants[t]->name());
  }
  if (bad > 0)
    rep.errors.push_back(std::to_string(bad) + " served logits differ from a direct forward");
  return bad;
}

/// End-to-end numbers of one timed window (shared by both runs; the traced
/// run reports a subset under trace.*).
struct EndToEnd {
  double throughput = 0, p50 = 0, top1 = 0;
  int64_t served = 0;
};

EndToEnd end_to_end(const Rig& rig, const Window& w, Report& rep) {
  std::vector<const Request*> served;
  std::vector<double> late;
  int64_t correct = 0, ok = 0;
  for (const Request& q : w.reqs) {
    if (q.ok) ++ok;
    if (!q.served) continue;
    served.push_back(&q);
    late.push_back(q.late_ms);
    if (q.top1 == rig.labels[static_cast<size_t>(q.sample)]) ++correct;
  }
  EndToEnd e;
  rep.attempted = static_cast<int64_t>(w.reqs.size());
  rep.failed = rep.attempted - ok;
  if (served.empty()) {
    rep.errors.push_back("no request was served");
    return e;
  }
  std::sort(served.begin(), served.end(),
            [](const Request* a, const Request* b) { return a->done_ns < b->done_ns; });
  // Throughput and p50 are taken per block of kBlock consecutive completions
  // and reported at the level sustained in 19 of 20 blocks (kSustained).
  std::vector<double> tput, p50, all;
  const size_t blocks = std::max<size_t>(1, served.size() / kBlock);
  const size_t per = served.size() / blocks;
  int64_t prev_ns = w.start_ns;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lo = b * per, hi = b + 1 == blocks ? served.size() : lo + per;
    std::vector<double> lat;
    int64_t block_ok = 0;
    for (size_t i = lo; i < hi; ++i) {
      lat.push_back(served[i]->latency_ms);
      all.push_back(served[i]->latency_ms);
      block_ok += served[i]->ok ? 1 : 0;
    }
    const int64_t end_ns = served[hi - 1]->done_ns;
    tput.push_back(static_cast<double>(block_ok) / (static_cast<double>(end_ns - prev_ns) * 1e-9));
    prev_ns = end_ns;
    p50.push_back(percentile(lat, 0.50));
  }
  e.served = static_cast<int64_t>(served.size());
  e.throughput = percentile(tput, 1.0 - kSustained);
  e.p50 = percentile(p50, kSustained);
  e.top1 = e.served > 0 ? 100.0 * static_cast<double>(correct) / static_cast<double>(e.served) : 0;
  rep.info["blocks"] = static_cast<double>(blocks);
  rep.info["block_size"] = static_cast<double>(per);
  // The window's p99 is printed but is not a metric: host scheduling stalls
  // of 10-60 ms set it, and its spread over 10 seeds reached 0.3-0.6 of the
  // median on the shared host the benchmark was sized on.
  rep.info["latency_p99_ms"] = percentile(all, 0.99);
  rep.info["latency_p99_samples_beyond"] =
      static_cast<double>(samples_beyond(static_cast<int64_t>(all.size()), 0.99));
  rep.info["generator_late_p50_ms"] = percentile(late, 0.50);
  rep.info["generator_late_p99_ms"] = percentile(late, 0.99);
  rep.info["generator_late_max_ms"] = percentile(late, 1.0);
  return e;
}

/// Traced run: replay the lane model at the (tenant, batch size) mix the
/// window produced and derive the per-layer metrics.
void per_layer(Rig& rig, const Window& w, const serve::EngineStats& s0,
               const serve::EngineStats& s1, Trace& trace, Report& rep) {
  // Batches per (tenant, size): each request of a size-b batch is 1/b of it.
  std::map<std::pair<int, int>, double> batches;
  double total = 0;
  for (const Request& q : w.reqs)
    if (q.served && q.batch > 0) {
      batches[{q.tenant, q.batch}] += 1.0 / q.batch;
      total += 1.0 / q.batch;
    }
  std::mt19937_64 gen(0xBA7C4);
  std::vector<int64_t> order(rig.images.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::shuffle(order.begin(), order.end(), gen);
  const auto& test = rig.engine->data().test;

  std::map<std::pair<int, int>, StageTimes> replays;
  double wsum = 0;
  StageTimes mix;
  for (const auto& [key, count] : batches) {
    const double share = count / total;
    if (share < kReplayMinShare) continue;
    const Tensor batch = test.gather(order, 0, key.second).first;
    const int64_t root = trace.new_id();
    const int64_t t0 = now_ns();
    const StageTimes st =
        replay_forward(rig.engine->model(0),
                       rig.tenants[static_cast<size_t>(key.first)]->exec_context(0, 0), batch,
                       kReplayReps, trace, root);
    trace.add("replay", t0, now_ns(), root);
    if (const std::string err = closure_error(st); !err.empty())
      rep.errors.push_back("closure: tenant " + rig.tenants[static_cast<size_t>(key.first)]->name() +
                           ": " + err);
    replays[key] = st;
    wsum += share;
    mix.forward_ms += share * st.forward_ms;
    mix.nonleaf_ms += share * st.nonleaf_ms;
    mix.act_ms += share * st.act_ms;
    mix.weight_ms += share * st.weight_ms;
    mix.im2col_ms += share * st.im2col_ms;
    mix.gemm_ms += share * st.gemm_ms;
    mix.epilogue_ms += share * st.epilogue_ms;
    mix.replay_macs += static_cast<int64_t>(share * static_cast<double>(st.replay_macs));
  }
  if (wsum <= 0) {
    rep.errors.push_back("no batch size to replay");
    return;
  }
  std::vector<double> submit_us, engine_ms, wait_ms;
  for (const Request& q : w.reqs) {
    if (!q.served) continue;
    submit_us.push_back(q.submit_us);
    engine_ms.push_back(q.engine_latency_ms);
    if (auto it = replays.find({q.tenant, q.batch}); it != replays.end())
      wait_ms.push_back(q.engine_latency_ms - it->second.forward_ms);
  }
  const double nb = static_cast<double>(std::max<int64_t>(1, s1.batches - s0.batches));
  auto& m = rep.metrics;
  m["serve.submit_us"] = median(submit_us);
  m["serve.engine_latency_ms"] = median(engine_ms);
  m["serve.wait_ms"] = median(wait_ms);
  m["serve.mean_batch"] = static_cast<double>(s1.requests - s0.requests) / nb;
  m["serve.flush_timer_frac"] = static_cast<double>(s1.flush_timer - s0.flush_timer) / nb;
  m["serve.deadline_misses"] = static_cast<double>(s1.deadline_misses - s0.deadline_misses);
  m["serve.queue_full_waits"] = static_cast<double>(s1.queue_full_waits - s0.queue_full_waits);
  m["serve.shed"] = static_cast<double>(s1.shed - s0.shed);
  m["serve.rejected"] = static_cast<double>(s1.rejected - s0.rejected);
  m["models.forward_ms"] = mix.forward_ms / wsum;
  m["nn.nonleaf_ms"] = mix.nonleaf_ms / wsum;
  m["quant.act_ms"] = mix.act_ms / wsum;
  m["quant.weight_ms"] = mix.weight_ms / wsum;
  m["nn.im2col_ms"] = mix.im2col_ms / wsum;
  m["kernels.gemm_ms"] = mix.gemm_ms / wsum;
  m["nn.epilogue_ms"] = mix.epilogue_ms / wsum;
  m["kernels.gemm_gmacs"] = static_cast<double>(mix.replay_macs) / (mix.gemm_ms * 1e6);
  for (const auto& [key, st] : replays) {
    const std::string at = rig.tenants[static_cast<size_t>(key.first)]->name() + ".b" +
                           std::to_string(key.second);
    rep.info["replay_forward_ms." + at] = st.forward_ms;
    rep.info["closure_stage_over_leaf." + at] = st.stage_over_leaf;
    rep.info["closure_leaf_over_forward." + at] = st.leaf_over_forward;
  }
}

Report run_serving(const Args& args, bool poisson) {
  Report rep;
  Trace trace(args.trace);
  std::vector<double> setup_s;
  Rig rig = load_rig(poisson, setup_s);
  const auto run = [&](uint64_t seed, double seconds, Trace& tr) {
    return poisson ? open_loop(rig, seed, seconds, tr) : closed_loop(rig, seed, seconds, tr);
  };

  Trace untraced(false);
  (void)run(args.seed ^ 0x5A17ull, kWarmupSeconds, untraced);
  rig.engine->drain();

  const serve::EngineStats s0 = rig.engine->stats();
  const axnn::kernels::PlanCacheStats p0 = axnn::kernels::PlanCache::global().stats();
  const axnn::BufferPoolStats b0 = axnn::buffer_pool_stats();
  HostProbe host;
  Window w = run(args.seed, args.seconds, trace);
  rig.engine->drain();
  await_healthy_lanes(*rig.engine);
  host.stop(rep);
  const serve::EngineStats s1 = rig.engine->stats();
  const axnn::kernels::PlanCacheStats p1 = axnn::kernels::PlanCache::global().stats();
  const axnn::BufferPoolStats b1 = axnn::buffer_pool_stats();

  (void)check_outputs(rig, w.reqs, rep);
  const EndToEnd e = end_to_end(rig, w, rep);
  const int64_t plan_misses = p1.misses - p0.misses;
  const int64_t plan_hits = p1.hits - p0.hits;
  rep.info["mean_batch"] =
      static_cast<double>(s1.requests - s0.requests) /
      static_cast<double>(std::max<int64_t>(1, s1.batches - s0.batches));
  rep.info["plan_misses"] = static_cast<double>(plan_misses);
  rep.info["lane_quarantines"] = static_cast<double>(s1.quarantines - s0.quarantines);
  rep.info["requeued_batches"] = static_cast<double>(s1.requeued_batches - s0.requeued_batches);
  if (poisson) rep.info["offered_rate_rps"] = kPoissonRate;
  // Engine::load pre-warms every plan of the default session, so a
  // single-tenant window must not build a single plan.
  if (!poisson && plan_misses != 0)
    rep.errors.push_back("plan cache missed " + std::to_string(plan_misses) +
                         " times in the timed window");

  if (!args.trace) {
    rep.metrics["setup_s"] = median(setup_s);
    rep.metrics["throughput_per_s"] = e.throughput;
    rep.metrics["latency_p50_ms"] = e.p50;
    rep.metrics["top1_pct"] = e.top1;
    rep.metrics["peak_rss_mb"] = peak_rss_mb();
    return rep;
  }
  rep.metrics["trace.throughput_per_s"] = e.throughput;
  rep.metrics["trace.latency_p50_ms"] = e.p50;
  rep.metrics["kernels.plan_hit_rate"] =
      plan_hits + plan_misses > 0
          ? static_cast<double>(plan_hits) / static_cast<double>(plan_hits + plan_misses)
          : 1.0;
  rep.metrics["kernels.plan_misses"] = static_cast<double>(plan_misses);
  rep.metrics["tensor.pool_misses"] = static_cast<double>(b1.misses - b0.misses);
  per_layer(rig, w, s0, s1, trace, rep);
  if (!trace.write(args.trace_out)) rep.errors.push_back("cannot write " + args.trace_out);
  return rep;
}

}  // namespace

Report run_serve_saturated(const Args& args) { return run_serving(args, false); }
Report run_serve_poisson_mixed(const Args& args) { return run_serving(args, true); }

}  // namespace perfbench
