// QoS subsystem tests (DESIGN.md §5h): operating-point-set parsing, the
// pure hysteretic Governor state machine under synthetic signals, and the
// serving engine's ladder integration — batch-atomic point swaps (every
// response's logits bitwise-match a single-point forward under the point it
// was stamped with) and structured load/open_session failures.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "axnn/axnn.hpp"
#include "temp_path.hpp"

namespace axnn::qos {
namespace {

// --- Operating-point-set parsing -----------------------------------------

TEST(OperatingPoints, ParsesNamedLadder) {
  const auto pts = parse_points(
      "# ladder comment\n"
      "\n"
      "point accurate   = default=trunc5\n"
      "point balanced   = default=trunc5; stack2=trunc5:mode=exact\n"
      "point throughput = default=trunc5:mode=exact\n");
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].name, "accurate");
  EXPECT_EQ(pts[0].plan_text, "default=trunc5");
  EXPECT_EQ(pts[1].name, "balanced");
  EXPECT_EQ(pts[1].plan_text, "default=trunc5; stack2=trunc5:mode=exact");
  EXPECT_EQ(pts[2].name, "throughput");
}

TEST(OperatingPoints, RoundTripsThroughText) {
  const std::vector<OperatingPointSpec> pts = {
      {"hi", "default=trunc5"},
      {"lo-energy.v2", "default=trunc2:noge; fc=trunc5:mode=exact"}};
  const auto again = parse_points(to_text(pts));
  ASSERT_EQ(again.size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(again[i].name, pts[i].name);
    EXPECT_EQ(again[i].plan_text, pts[i].plan_text);
  }
}

TEST(OperatingPoints, RejectsMalformedSets) {
  EXPECT_THROW(parse_points(""), std::invalid_argument);             // empty set
  EXPECT_THROW(parse_points("# only comments\n"), std::invalid_argument);
  EXPECT_THROW(parse_points("point a default=trunc5\n"), std::invalid_argument);  // no '='
  EXPECT_THROW(parse_points("point = default=trunc5\n"), std::invalid_argument);  // no name
  EXPECT_THROW(parse_points("point a =\n"), std::invalid_argument);  // empty plan
  EXPECT_THROW(parse_points("point bad name = default=trunc5\n"), std::invalid_argument);
  EXPECT_THROW(parse_points("point a = default=no_such_mul\n"), std::invalid_argument);
  EXPECT_THROW(parse_points("point a = default=trunc5\npoint a = default=trunc4\n"),
               std::invalid_argument);  // duplicate name
  std::string too_many;
  for (int i = 0; i <= kMaxOperatingPoints; ++i)
    too_many += "point p" + std::to_string(i) + " = default=trunc5\n";
  EXPECT_THROW(parse_points(too_many), std::invalid_argument);
}

TEST(OperatingPoints, ParseErrorsNameTheLine) {
  try {
    parse_points("point ok = default=trunc5\npoint broken = default=no_such_mul\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// --- Pure governor state machine ------------------------------------------

constexpr int64_t kMs = 1'000'000;

std::vector<OperatingPoint> ladder3(double e0 = 100.0, double e1 = 50.0, double e2 = 25.0) {
  OperatingPoint a{"hi", "default=trunc5", 0.9, e0, 0.0, 4.0};
  OperatingPoint b{"mid", "default=trunc4", 0.85, e1, 50.0, 3.0};
  OperatingPoint c{"lo", "default=trunc2", 0.7, e2, 75.0, 2.0};
  return {a, b, c};
}

GovernorConfig quick_cfg() {
  GovernorConfig cfg;
  cfg.tick_interval_ms = 10;
  cfg.dwell_ms = 100;
  cfg.recover_ms = 300;
  cfg.p95_high_ms = 20.0;
  cfg.react_to_backpressure = true;
  return cfg;
}

GovernorSignals at(int64_t t_ms, double p95 = 0.0) {
  GovernorSignals s;
  s.now_ns = t_ms * kMs;
  s.p95_ms = p95;
  return s;
}

TEST(Governor, ValidatesConfigAndLadder) {
  GovernorConfig bad = quick_cfg();
  bad.tick_interval_ms = 0;
  EXPECT_THROW(Governor(bad, ladder3()), std::invalid_argument);
  bad = quick_cfg();
  bad.p95_recover_frac = 0.0;
  EXPECT_THROW(Governor(bad, ladder3()), std::invalid_argument);
  bad = quick_cfg();
  bad.p95_high_ms = -1.0;
  EXPECT_THROW(Governor(bad, ladder3()), std::invalid_argument);
  EXPECT_THROW(Governor(quick_cfg(), {}), std::invalid_argument);
  EXPECT_THROW(Governor(quick_cfg(), ladder3(), 3), std::invalid_argument);
  EXPECT_THROW(Governor(quick_cfg(), ladder3(), -1), std::invalid_argument);
}

TEST(Governor, StepsDownOnePointPerDwell) {
  Governor g(quick_cfg(), ladder3());
  // Sustained pressure: p95 far beyond the threshold on every tick.
  int64_t t = 0;
  std::vector<Transition> moves;
  for (; t <= 500; t += 10)
    if (auto m = g.update(at(t, 80.0))) moves.push_back(*m);
  // 0 -> 1 -> 2, one step at a time, each at least dwell apart; then the
  // ladder floor holds.
  ASSERT_EQ(moves.size(), 2u);
  for (const auto& m : moves) {
    EXPECT_EQ(m.to, m.from + 1);
    EXPECT_EQ(m.cause, Cause::kLoad);
  }
  EXPECT_GE(moves[1].t_ns - moves[0].t_ns, 100 * kMs);
  EXPECT_EQ(g.active(), 2);
}

TEST(Governor, OscillatingSignalCannotFlap) {
  // p95 alternates above/below the threshold every tick — the worst case
  // for a naive controller. Dwell + the continuous-calm recovery window
  // bound the transition count: calm never accumulates recover_ms, so the
  // governor only ever walks down, at most once per dwell.
  Governor g(quick_cfg(), ladder3());
  int64_t t = 0;
  for (int i = 0; t <= 2000; t += 10, ++i) (void)g.update(at(t, i % 2 == 0 ? 80.0 : 1.0));
  EXPECT_LE(g.transitions().size(), 1 + 2000u / 100u);
  for (const auto& m : g.transitions()) EXPECT_EQ(m.to, m.from + 1);  // never stepped up
}

TEST(Governor, RecoveryRequiresContinuousCalmAndMargin) {
  Governor g(quick_cfg(), ladder3());
  (void)g.update(at(0, 0.0));
  ASSERT_TRUE(g.update(at(150, 80.0)).has_value());  // down after dwell
  EXPECT_EQ(g.active(), 1);

  // Calm, but short of recover_ms: no move.
  for (int64_t t = 160; t < 150 + 300; t += 10) EXPECT_FALSE(g.update(at(t, 1.0)).has_value());
  // One pressured tick resets the calm window...
  (void)g.update(at(460, 80.0));  // (dwell not elapsed since 150? it is; but
  EXPECT_EQ(g.active(), 2);       // pressure steps further down instead)
  // ...so recovery needs a fresh full window from here.
  for (int64_t t = 470; t < 460 + 300; t += 10) EXPECT_FALSE(g.update(at(t, 1.0)).has_value());
  auto up = g.update(at(770, 1.0));
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->cause, Cause::kRecovery);
  EXPECT_EQ(up->to, 1);

  // Calm in wall-clock but p95 above the recovery margin (0.5 * 20ms):
  // no step up even after the window.
  for (int64_t t = 780; t <= 780 + 600; t += 10)
    EXPECT_FALSE(g.update(at(t, 15.0)).has_value()) << "t=" << t;
  EXPECT_EQ(g.active(), 1);
}

TEST(Governor, SignalPriorityHealthOverLoad) {
  GovernorConfig cfg = quick_cfg();
  cfg.violation_rate_high = 0.01;
  Governor g(cfg, ladder3());
  (void)g.update(at(0));
  GovernorSignals s = at(200, 80.0);  // load pressure AND health pressure
  s.violation_rate = 0.5;
  auto m = g.update(s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->cause, Cause::kHealth);

  GovernorSignals d = at(400);
  d.new_degraded = 2;
  m = g.update(d);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->cause, Cause::kHealth);
  EXPECT_NE(m->detail.find("degraded"), std::string::npos);
}

TEST(Governor, QuarantinedLanesAreHealthPressure) {
  // A quarantined serving lane shrinks capacity: the watchdog gauge feeds
  // the governor as sustained health pressure until readmission.
  Governor g(quick_cfg(), ladder3());
  (void)g.update(at(0));
  GovernorSignals s = at(200);
  s.lanes_quarantined = 1;
  auto m = g.update(s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->cause, Cause::kHealth);
  EXPECT_NE(m->detail.find("1 lanes quarantined"), std::string::npos) << m->detail;

  // Still quarantined after the dwell: keeps walking down the ladder.
  s = at(400);
  s.lanes_quarantined = 1;
  m = g.update(s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(g.active(), 2);

  // Readmission clears the pressure; a full calm window steps back up.
  for (int64_t t = 410; t < 400 + 300; t += 10) EXPECT_FALSE(g.update(at(t)).has_value());
  auto up = g.update(at(710));
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->cause, Cause::kRecovery);

  // The knob can be disabled.
  GovernorConfig off = quick_cfg();
  off.step_down_on_quarantine = false;
  Governor g2(off, ladder3());
  (void)g2.update(at(0));
  GovernorSignals q = at(200);
  q.lanes_quarantined = 2;
  EXPECT_FALSE(g2.update(q).has_value());
}

TEST(Governor, BackpressureAndQueueDepthAreLoadSignals) {
  GovernorConfig cfg = quick_cfg();
  cfg.queue_high = 8;
  Governor g(cfg, ladder3());
  (void)g.update(at(0));
  GovernorSignals s = at(200);
  s.queue_depth = 8;
  auto m = g.update(s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->cause, Cause::kLoad);
  EXPECT_NE(m->detail.find("queue depth"), std::string::npos);

  GovernorSignals b = at(400);
  b.queue_full_waits = 3;
  m = g.update(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->cause, Cause::kLoad);
  EXPECT_NE(m->detail.find("backpressure"), std::string::npos);
}

TEST(Governor, EnergyCapStepsDownMonotoneLadderOnly) {
  GovernorConfig cfg = quick_cfg();
  cfg.p95_high_ms = 0.0;  // isolate the energy trigger
  cfg.energy_cap_per_s = 1000.0;
  Governor g(cfg, ladder3(100.0, 50.0, 25.0));
  (void)g.update(at(0));
  GovernorSignals s = at(200);
  s.energy_rate = 5000.0;
  auto m = g.update(s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->cause, Cause::kEnergy);
  EXPECT_EQ(m->to, 1);

  // Recovery projects the rate at the upper point: rate * (e0/e1) must be
  // under energy_recover_frac * cap. 300/s at point 1 projects to 600/s at
  // point 0 <= 0.8 * 1000 — recovers once the calm window (armed at the
  // first calm tick, 210) reaches recover_ms.
  for (int64_t t = 210; t < 510; t += 10) {
    GovernorSignals calmer = at(t);
    calmer.energy_rate = 300.0;
    EXPECT_FALSE(g.update(calmer).has_value()) << "t=" << t;
  }
  GovernorSignals calm = at(510);
  calm.energy_rate = 300.0;
  auto up = g.update(calm);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->cause, Cause::kRecovery);

  // A latency-oriented ladder where down-ladder is NOT cheaper: the energy
  // trigger must never fire (shedding accuracy would not help the cap).
  Governor flat(cfg, ladder3(100.0, 100.0, 120.0));
  (void)flat.update(at(0));
  for (int64_t tt = 200; tt <= 1000; tt += 10) {
    GovernorSignals hot = at(tt);
    hot.energy_rate = 5000.0;
    EXPECT_FALSE(flat.update(hot).has_value());
  }
  EXPECT_EQ(flat.active(), 0);
}

TEST(Governor, ForceValidatesAndRecords) {
  Governor g(quick_cfg(), ladder3());
  EXPECT_THROW(g.force(3, 0), std::invalid_argument);
  EXPECT_THROW(g.force(-1, 0), std::invalid_argument);
  const Transition t = g.force(2, 100 * kMs);
  EXPECT_EQ(t.cause, Cause::kManual);
  EXPECT_EQ(t.to, 2);
  EXPECT_EQ(g.active(), 2);
  // Same-point force is a no-op: nothing recorded.
  (void)g.force(2, 200 * kMs);
  EXPECT_EQ(g.transitions().size(), 1u);
  const auto spent = g.time_in_point_ms(300 * kMs);
  ASSERT_EQ(spent.size(), 3u);
  EXPECT_DOUBLE_EQ(spent[0], 0.0);  // entered point 2 at the first event
  EXPECT_DOUBLE_EQ(spent[2], 200.0);
}

}  // namespace
}  // namespace axnn::qos

// --- Engine ladder integration --------------------------------------------

namespace axnn::serve {
namespace {

constexpr const char* kLadder =
    "point accurate   = default=trunc5\n"
    "point throughput = default=trunc5:mode=exact\n";

ModelSpec qos_micro_spec() {
  ModelSpec spec;
  spec.model = core::ModelKind::kResNet20;
  spec.profile.image_size = 8;
  spec.profile.train_size = 160;
  spec.profile.test_size = 80;
  spec.profile.resnet_width = 0.25f;
  spec.profile.fp_epochs = 4;
  spec.profile.ft_epochs = 2;
  spec.profile.ft_batch = 40;
  spec.profile.quant_epochs = 1;
  spec.profile.decay_every = 2;
  spec.profile.cache_dir = axnn::test_util::unique_temp_path("axnn_qos_cache");
  spec.use_cache = false;
  spec.finetune = false;
  spec.qos_points = kLadder;
  spec.qos_holdout = 48;
  spec.qos_latency_probes = 2;
  // Inert governor: every trigger off, so only manual flips move the
  // session — the tests control the epoch flips.
  spec.governor.react_to_backpressure = false;
  spec.batching.max_batch = 4;
  spec.batching.max_delay_us = 20000;
  spec.batching.queue_capacity = 16;
  return spec;
}

class QosEngineFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() { engine_ = Engine::load(qos_micro_spec()).release(); }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static Engine* engine_;
};

Engine* QosEngineFixture::engine_ = nullptr;

TEST_F(QosEngineFixture, LadderMetadataIsCalibrated) {
  ASSERT_TRUE(engine_->qos_enabled());
  const auto& pts = engine_->operating_points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].name, "accurate");
  EXPECT_EQ(pts[1].name, "throughput");
  for (const auto& p : pts) {
    EXPECT_GT(p.latency_est_ms, 0.0) << p.name;
    EXPECT_GT(p.energy_per_req, 0.0) << p.name;
    EXPECT_GE(p.holdout_acc, 0.0) << p.name;
    EXPECT_LE(p.holdout_acc, 1.0) << p.name;
  }
  // This ladder trades latency, not energy: exact MACs cost 1.0 unit while
  // trunc5 MACs are cheaper, so the throughput point is MORE expensive per
  // request — exactly the shape the governor's energy guard must refuse to
  // descend (Governor.EnergyCapStepsDownMonotoneLadderOnly).
  EXPECT_GT(pts[1].energy_per_req, pts[0].energy_per_req);
  EXPECT_GT(pts[0].energy_savings_pct, pts[1].energy_savings_pct);

  Session& s = engine_->session();
  EXPECT_TRUE(s.governed());
  EXPECT_EQ(s.num_points(), 2);
  EXPECT_EQ(s.point_name(0), "accurate");
  EXPECT_EQ(s.point_name(1), "throughput");
  EXPECT_EQ(s.active_point(), 0);
}

TEST_F(QosEngineFixture, ManualFlipAppliesToLaterBatches) {
  Session& s = engine_->session();
  const data::Dataset& test = engine_->data().test;
  ASSERT_EQ(s.active_point(), 0);

  const Ticket t0 = s.submit(test.slice(0, 1).first);
  const Result r0 = s.await(t0);
  EXPECT_EQ(r0.point, 0);
  EXPECT_EQ(r0.point_name, "accurate");

  engine_->drain();
  s.set_active_point(1);
  const Result r1 = s.await(s.submit(test.slice(0, 1).first));
  EXPECT_EQ(r1.point, 1);
  EXPECT_EQ(r1.point_name, "throughput");

  // The two points genuinely serve different arithmetic on the same image.
  bool differs = false;
  for (int64_t j = 0; j < r0.logits.numel() && !differs; ++j)
    differs = r0.logits[j] != r1.logits[j];
  EXPECT_TRUE(differs);
  s.set_active_point(0);
  engine_->drain();
}

TEST_F(QosEngineFixture, BatchAtomicSwapsAreBitTransparent) {
  Session& s = engine_->session();
  const data::Dataset& test = engine_->data().test;
  constexpr int kRequests = 48;

  // Clients hammer the session while the main thread flips the active
  // point. Every batch must execute entirely under the point it was
  // gathered with — proved by bitwise-matching each response against a
  // single-sample forward under the point stamped into it.
  std::vector<Result> results;
  results.reserve(kRequests);
  std::thread client([&] {
    for (int i = 0; i < kRequests; ++i)
      results.push_back(s.await(s.submit(test.slice(i % test.size(), 1).first)));
  });
  for (int flip = 0; flip < 10; ++flip) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    s.set_active_point(flip % 2 == 0 ? 1 : 0);
  }
  client.join();
  engine_->drain();

  for (int i = 0; i < kRequests; ++i) {
    const Result& r = results[static_cast<size_t>(i)];
    ASSERT_GE(r.point, 0);
    ASSERT_LT(r.point, s.num_points());
    const Tensor ref = engine_->model(0).forward(test.slice(i % test.size(), 1).first,
                                                 s.exec_context(0, r.point));
    ASSERT_EQ(ref.numel(), r.logits.numel());
    for (int64_t j = 0; j < ref.numel(); ++j)
      ASSERT_EQ(ref[j], r.logits[j]) << "request " << i << " under point " << r.point_name;
  }
  s.set_active_point(0);
  engine_->drain();
}

TEST_F(QosEngineFixture, QosReportAccountsAllTraffic) {
  // Serve a little traffic on each side of the ladder ourselves — each
  // test must hold alone (ctest runs them in separate processes).
  Session& s = engine_->session();
  const data::Dataset& test = engine_->data().test;
  ASSERT_EQ(s.active_point(), 0);
  for (int i = 0; i < 3; ++i) (void)s.await(s.submit(test.slice(i, 1).first));
  engine_->drain();
  s.set_active_point(1);
  for (int i = 0; i < 2; ++i) (void)s.await(s.submit(test.slice(i, 1).first));
  engine_->drain();
  s.set_active_point(0);
  engine_->drain();

  const qos::QosReport rep = engine_->qos_report();
  ASSERT_EQ(rep.points.size(), 2u);
  ASSERT_EQ(rep.sessions.size(), 1u);  // only the governed default session
  const qos::SessionQos& sq = rep.sessions.front();
  EXPECT_EQ(sq.session, "default");
  ASSERT_EQ(sq.requests_per_point.size(), 2u);
  int64_t total = 0;
  for (const int64_t n : sq.requests_per_point) total += n;
  EXPECT_EQ(total, engine_->stats().requests);
  // Both sides of the ladder served traffic and every move was recorded.
  EXPECT_GT(sq.requests_per_point[0], 0);
  EXPECT_GT(sq.requests_per_point[1], 0);
  EXPECT_EQ(static_cast<int64_t>(sq.transitions.size()), engine_->stats().qos_transitions);
  for (const auto& t : sq.transitions) EXPECT_EQ(t.cause, qos::Cause::kManual);
  const obs::Json j = rep.to_json();
  ASSERT_NE(j.find("points"), nullptr);
  ASSERT_NE(j.find("sessions"), nullptr);
}

TEST_F(QosEngineFixture, SetActivePointValidates) {
  Session& s = engine_->session();
  EXPECT_THROW(s.set_active_point(2), std::out_of_range);
  EXPECT_THROW(s.set_active_point(-1), std::out_of_range);

  // A tenant with an explicit plan is ungoverned: exactly one point, and
  // manual flips are a logic error.
  Session& pinned = engine_->open_session("pinned", "default=trunc5");
  EXPECT_FALSE(pinned.governed());
  EXPECT_EQ(pinned.num_points(), 1);
  EXPECT_EQ(pinned.active_point(), 0);
  EXPECT_THROW(pinned.set_active_point(0), std::logic_error);
}

TEST_F(QosEngineFixture, OpenSessionFailuresNameLanePointAndStage) {
  try {
    engine_->open_session("bad-widths", "default=trunc5:w3");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("session 'bad-widths'"), std::string::npos) << what;
    EXPECT_NE(what.find("lane 0"), std::string::npos) << what;
    EXPECT_NE(what.find("validate"), std::string::npos) << what;
  }
  // The failed open leaked nothing: the name is free for a valid plan.
  Session& ok = engine_->open_session("bad-widths", "default=trunc5");
  EXPECT_EQ(ok.num_points(), 1);
}

TEST(QosEngine, LoadRejectsBadLadderBeforeTraining) {
  ModelSpec bad = qos_micro_spec();
  bad.qos_points = "point a = default=no_such_mul\n";
  // Ladder validation happens before any training work: this must fail
  // fast (the suite would time out if a model were trained first).
  EXPECT_THROW(Engine::load(bad), std::invalid_argument);

  ModelSpec badcfg = qos_micro_spec();
  badcfg.governor.tick_interval_ms = 0;
  EXPECT_THROW(Engine::load(badcfg), std::invalid_argument);

  ModelSpec badprobe = qos_micro_spec();
  badprobe.qos_latency_probes = 0;
  EXPECT_THROW(Engine::load(badprobe), std::invalid_argument);
}

}  // namespace
}  // namespace axnn::serve
