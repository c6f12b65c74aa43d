#include "scale_ops.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "scenarios/world.hpp"
#include "sim/sector.hpp"

namespace perfbench {

namespace sc = eona::scenarios;
using eona::Duration;
using eona::TimePoint;

sc::ScaleConfig scale_config(const ScaleOp& op) {
  sc::ScaleConfig c;
  c.seed = op.seed;
  c.mode = sc::ControlMode::kEona;
  c.sessions = op.sessions;
  c.sectors = op.sectors;
  c.threads = op.threads;
  c.arrival_window = op.arrival_window;
  return c;
}

namespace {

void append_qoe(std::string& out, const sc::QoeSummary& q) {
  out += std::to_string(q.sessions) + ' ' + exact(q.mean_buffering) + ' ' +
         exact(q.p90_buffering) + ' ' + exact(q.mean_bitrate) + ' ' +
         exact(q.mean_join_time) + ' ' + exact(q.mean_engagement) + ' ' +
         std::to_string(q.stalls) + ' ' + std::to_string(q.cdn_switches) +
         ' ' + std::to_string(q.server_switches) + '\n';
}

}  // namespace

std::string scale_canonical(const sc::ScaleResult& r) {
  std::string out = "arrivals " + std::to_string(r.arrivals) + "\nevents " +
                    std::to_string(r.events) + "\npeak_concurrent " +
                    std::to_string(r.peak_concurrent) + "\nreallocations " +
                    std::to_string(r.reallocations) + "\nbarrier_rounds " +
                    std::to_string(r.barrier_rounds) + "\nqoe ";
  append_qoe(out, r.qoe);
  for (const sc::QoeSummary& q : r.per_sector) {
    out += "sector ";
    append_qoe(out, q);
  }
  return out;
}

namespace {

void put_result(JsonLine& j, const sc::ScaleResult& r) {
  j.count("admitted", r.arrivals)
      .count("events", r.events)
      .str("digest", std::to_string(fnv1a(scale_canonical(r))));
}

}  // namespace

JsonLine run_scale_timed(const ScaleOp& op) {
  sc::RunPerf perf;
  sc::ScaleConfig config = scale_config(op);
  config.perf = &perf;
  const std::uint64_t rss0 = rss_bytes();
  const Clock::time_point t0 = Clock::now();
  sc::ScaleResult result = sc::run_scale(config);
  const double wall = seconds_between(t0, Clock::now());
  const double advance =
      static_cast<double>(perf.parallel_advance_ns + perf.serial_barrier_ns) *
      1e-9;
  JsonLine j;
  j.flag("ok", true)
      .count("sessions", op.sessions)
      .num("wall_s", wall)
      .num("setup_s", wall - advance)
      .count("rss_before_bytes", rss0)
      .count("peak_rss_bytes", peak_rss_bytes());
  put_result(j, result);
  return j;
}

// ---------------------------------------------------------------------------
// Traced re-composition. Mirrors scenarios/scale.cpp call for call; the only
// additions are spans and read-only counters.

namespace {

constexpr TimePoint kNever = std::numeric_limits<TimePoint>::infinity();

/// Per-sector counts from bus subscriptions and round-end samples, folded
/// in sector order after the drain.
struct Counts {
  std::uint64_t recomputes = 0;
  std::uint64_t flows_resolved = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t stalls = 0;
  std::uint64_t steerings = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::size_t heap_high_water = 0;
  int peak_link_flows = 0;
};

struct Sector {
  Counts counts;  // declared before the world: handlers outlive no owner
  std::unique_ptr<eona::sim::World> world;
  eona::app::SessionPool* pool = nullptr;
  eona::control::AppPController* appp = nullptr;
  eona::app::PlayerBrain* brain = nullptr;
  eona::NodeId client;
  eona::IspId isp{0};
  eona::LinkId access;
  std::optional<eona::sim::Rng> content_rng;
  std::optional<eona::app::PoissonArrivals> arrivals;
  std::size_t quota = 0;
  std::size_t spawned = 0;
  eona::SessionId::rep_type next_session = 0;
  bool window_closed = false;
  double grant = 0.0;
  bool grant_changed = true;
};

struct SectorSlot {
  double pressure = 0.0;
  double next_event = 0.0;
  std::uint32_t active = 0;
  bool pressure_changed = true;
};

struct Names {
  std::uint32_t build, round, run_until, spawn, drain, coordinate, summarize;
  explicit Names(SpanRecorder& rec)
      : build(rec.intern("scenarios.build_world")),
        round(rec.intern("sim.round")),
        run_until(rec.intern("sim.run_until")),
        spawn(rec.intern("app.spawn")),
        drain(rec.intern("app.drain")),
        coordinate(rec.intern("scenarios.coordinate")),
        summarize(rec.intern("scenarios.summarize")) {}
};

void spawn_session(Sector& sec, SpanRecorder& rec, const Names& names) {
  ScopedSpan span(&rec, names.spawn);
  eona::SessionId session(sec.next_session++);
  eona::telemetry::Dimensions dims;
  dims.isp = sec.isp;
  eona::app::ContentCatalog& catalog = sec.world->catalog();
  eona::ContentId content = catalog.sample(*sec.content_rng);
  sec.pool->spawn_player(sec.world->sched(), sec.world->transfers(),
                         sec.world->network(), sec.world->routing(),
                         sec.world->directory(), *sec.brain,
                         &sec.appp->collector(), eona::app::PlayerConfig{},
                         session, dims, sec.client, catalog.item(content),
                         eona::qoe::EngagementModel{});
  ++sec.spawned;
}

void subscribe_counts(Sector& sec) {
  using namespace eona::sim;
  EventBus& bus = sec.world->bus();
  Counts* c = &sec.counts;
  bus.subscribe<RateRecomputeEvent>([c](const RateRecomputeEvent& e) {
    ++c->recomputes;
    c->flows_resolved += e.affected_flows;
  });
  bus.subscribe<SessionStartedEvent>(
      [c](const SessionStartedEvent&) { ++c->sessions_started; });
  bus.subscribe<SessionStalledEvent>(
      [c](const SessionStalledEvent&) { ++c->stalls; });
  bus.subscribe<SteeringEvent>([c](const SteeringEvent&) { ++c->steerings; });
  bus.subscribe<ReportPublishedEvent>(
      [c](const ReportPublishedEvent&) { ++c->published; });
  bus.subscribe<ReportDeliveredEvent>(
      [c](const ReportDeliveredEvent&) { ++c->delivered; });
  bus.subscribe<ReportDroppedEvent>(
      [c](const ReportDroppedEvent&) { ++c->dropped; });
}

std::unique_ptr<Sector> make_sector(const sc::ScaleConfig& config,
                                    Duration window,
                                    std::uint64_t sector_seed,
                                    std::size_t quota) {
  auto sec = std::make_unique<Sector>();
  eona::sim::World::Builder b(sector_seed);
  b.add_isp_bottleneck(config.access_capacity);
  b.with_catalog(16, config.video_duration);
  eona::sim::World::Builder::CdnSpec cdn_spec;
  cdn_spec.warm = true;
  b.add_cdn("cdn", cdn_spec);
  b.build_network(sec->isp);

  b.add_exchange();
  eona::control::AppPController& appp = b.add_appp("video-appp");
  eona::control::InfPController& infp =
      b.add_infp("access-isp", sec->isp, {b.access_link()});
  b.wire_tenant();
  const bool eona_on = config.mode != sc::ControlMode::kBaseline;
  appp.set_eona_enabled(eona_on);
  infp.set_eona_enabled(eona_on);
  appp.start();
  infp.start();
  eona::control::OracleBrain& oracle = b.add_oracle();

  sec->pool = &b.add_session_pool();
  sec->appp = &appp;
  sec->brain = (config.mode == sc::ControlMode::kOracle)
                   ? static_cast<eona::app::PlayerBrain*>(&oracle)
                   : &appp.brain();
  sec->client = b.client();
  sec->access = b.access_link();
  sec->world = b.build();
  sec->content_rng.emplace(sec->world->rng().fork());
  sec->quota = quota;

  Duration est_window = std::max(window, config.video_duration);
  auto concurrent = static_cast<std::size_t>(
      static_cast<double>(quota) * config.video_duration / est_window);
  sec->pool->reserve(std::min(quota, 2 * concurrent + 8));
  subscribe_counts(*sec);
  return sec;
}

}  // namespace

JsonLine run_scale_traced(const ScaleOp& op) {
  const sc::ScaleConfig config = scale_config(op);
  SpanRecorder rec;
  const Names names(rec);
  const std::uint64_t rss0 = rss_bytes();
  const Clock::time_point t0 = Clock::now();

  const Duration window = config.arrival_window > 0.0
                              ? config.arrival_window
                              : config.run_duration - config.video_duration;
  const std::size_t n = config.sectors;
  eona::sim::Rng root(config.seed);

  std::vector<std::unique_ptr<Sector>> sectors;
  sectors.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    ScopedSpan span(&rec, names.build);
    std::size_t quota =
        config.sessions / n + (s < config.sessions % n ? 1 : 0);
    sectors.push_back(
        make_sector(config, window, root.fork_salted(s).seed(), quota));
  }
  for (auto& sec_ptr : sectors) {
    ScopedSpan span(&rec, names.build);
    Sector& sec = *sec_ptr;
    double rate = static_cast<double>(sec.quota) / window;
    std::vector<eona::app::ArrivalPhase> phases{{0.0, rate}};
    sec.arrivals.emplace(sec.world->sched(), sec.world->rng().fork(),
                         std::move(phases), window, [&sec, &rec, &names] {
                           if (sec.spawned < sec.quota)
                             spawn_session(sec, rec, names);
                         });
  }
  const std::uint64_t rss_setup = rss_bytes();

  // One thread: spans nest as a stack, and the result must equal a timed
  // run at any thread count byte for byte.
  eona::sim::SectorRunner runner(1);
  sc::ScaleResult result;
  result.per_sector.resize(n);
  const double headroom_pool = config.headroom_fraction *
                               config.access_capacity *
                               static_cast<double>(n);
  constexpr double kPressureThreshold = 0.9;

  std::vector<SectorSlot> slots(n);
  auto advance = [&](std::size_t s, TimePoint target) {
    Sector& sec = *sectors[s];
    {
      ScopedSpan span(&rec, names.run_until);
      sec.world->sched().run_until(target);
    }
    if (!sec.window_closed && target >= window) {
      sec.window_closed = true;
      sec.arrivals.reset();
      while (sec.spawned < sec.quota) spawn_session(sec, rec, names);
    }
    SectorSlot& slot = slots[s];
    double pressure = std::max(
        0.0, sec.world->network().link_utilization(sec.access) -
                 kPressureThreshold);
    slot.pressure_changed = pressure != slot.pressure;
    slot.pressure = pressure;
    slot.active = static_cast<std::uint32_t>(sec.pool->active_count());
    slot.next_event = sec.world->sched().next_event_time_or(kNever);
    sec.counts.heap_high_water = std::max(
        sec.counts.heap_high_water, sec.world->sched().pending_events());
    sec.counts.peak_link_flows = std::max(
        sec.counts.peak_link_flows,
        sec.world->network().link_flow_count(sec.access));
  };

  std::vector<std::size_t> active_idx;
  active_idx.reserve(n);
  for (TimePoint target = config.barrier_period;;
       target += config.barrier_period) {
    target = std::min(target, config.run_duration);
    active_idx.clear();
    {
      ScopedSpan span(&rec, names.coordinate);
      for (std::size_t s = 0; s < n; ++s) {
        Sector& sec = *sectors[s];
        SectorSlot& slot = slots[s];
        const bool crossing = !sec.window_closed && target >= window;
        const bool arrivals_quiet =
            sec.window_closed || sec.arrivals->next_fire_at() > target;
        const bool idle = slot.active == 0;
        const bool no_event_due = slot.next_event > target;
        const bool quiescent = config.elide_quiescent && !crossing &&
                               !sec.grant_changed && slot.pressure == 0.0 &&
                               arrivals_quiet && (idle || no_event_due);
        if (quiescent) {
          slot.pressure_changed = false;
        } else {
          active_idx.push_back(s);
        }
      }
    }
    result.sectors_dispatched += active_idx.size();
    result.sectors_elided += n - active_idx.size();
    {
      ScopedSpan span(&rec, names.round);
      runner.run_round(std::span<const std::size_t>(active_idx),
                       [&](std::size_t s) { advance(s, target); });
    }
    ++result.barrier_rounds;
    {
      ScopedSpan span(&rec, names.coordinate);
      double total_pressure = 0.0;
      std::size_t concurrent = 0;
      bool dirty = false;
      for (std::size_t s = 0; s < n; ++s) {
        concurrent += slots[s].active;
        total_pressure += slots[s].pressure;
        dirty |= slots[s].pressure_changed;
      }
      result.peak_concurrent = std::max(result.peak_concurrent, concurrent);
      if (dirty) {
        for (std::size_t s = 0; s < n; ++s) {
          Sector& sec = *sectors[s];
          double grant =
              total_pressure > 0.0
                  ? headroom_pool * slots[s].pressure / total_pressure
                  : 0.0;
          sec.grant_changed = grant != sec.grant;
          if (!sec.grant_changed) continue;
          sec.grant = grant;
          ++result.reallocations;
          sec.world->network().set_link_capacity(
              sec.access, config.access_capacity + grant);
        }
      } else {
        for (std::size_t s = 0; s < n; ++s) sectors[s]->grant_changed = false;
      }
    }
    if (target >= config.run_duration) break;
  }

  {
    ScopedSpan span(&rec, names.round);
    runner.run_round(n, [&](std::size_t s) {
      Sector& sec = *sectors[s];
      sec.arrivals.reset();
      {
        ScopedSpan drain(&rec, names.drain);
        sec.pool->abort_all();
      }
      {
        ScopedSpan run(&rec, names.run_until);
        sec.world->sched().run_until(config.run_duration + 1.0);
      }
      sec.world->auditor().finalize();
    });
  }
  result.sectors_dispatched += n;
  const std::uint64_t rss_run = rss_bytes();

  std::vector<eona::app::SessionSummary> all;
  {
    ScopedSpan span(&rec, names.summarize);
    all.reserve(config.sessions);
    for (std::size_t s = 0; s < n; ++s) {
      Sector& sec = *sectors[s];
      result.per_sector[s] = sc::QoeSummary::from(sec.pool->summaries());
      all.insert(all.end(), sec.pool->summaries().begin(),
                 sec.pool->summaries().end());
      result.events += sec.world->sched().events_fired();
      result.arrivals += sec.spawned;
    }
    result.qoe = sc::QoeSummary::from(all);
  }

  // Fold per-sector counts in sector order.
  Counts total;
  std::uint64_t appp_ticks = 0, infp_ticks = 0, rate_limited = 0,
                beacons = 0;
  for (const auto& sec_ptr : sectors) {
    const Counts& c = sec_ptr->counts;
    total.recomputes += c.recomputes;
    total.flows_resolved += c.flows_resolved;
    total.sessions_started += c.sessions_started;
    total.stalls += c.stalls;
    total.steerings += c.steerings;
    total.published += c.published;
    total.delivered += c.delivered;
    total.dropped += c.dropped;
    total.heap_high_water = std::max(total.heap_high_water, c.heap_high_water);
    total.peak_link_flows = std::max(total.peak_link_flows, c.peak_link_flows);
    eona::sim::World& w = *sec_ptr->world;
    appp_ticks += w.appp().ticks();
    infp_ticks += w.infp().ticks();
    rate_limited += w.exchange().total_delivery_stats().rate_limited;
    beacons += w.appp().collector().beacon_count();
  }
  // run_scale tears its worlds down before returning; so does this, inside
  // the wall time, so traced minus timed wall is the tracing overhead.
  all = {};
  sectors.clear();
  const double wall = seconds_between(t0, Clock::now());

  const auto spans = rec.fold();
  auto total_s = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  const double run_until_s = total_s("sim.run_until");
  const double round_s = total_s("sim.round");
  const auto sessions = static_cast<double>(std::max<std::size_t>(
      op.sessions, 1));

  JsonLine j;
  j.flag("ok", true).count("sessions", op.sessions).num("wall_s", wall);
  put_result(j, result);
  j.num("sim.run_until_self_s", spans.at("sim.run_until").self_s)
      .count("sim.events_fired", result.events)
      .count("sim.heap_high_water", total.heap_high_water)
      .num("sim.round_s", round_s)
      // threads x round time with threads = 1: the share of round time the
      // schedulers themselves run, the ceiling a parallel round can reach.
      .num("sim.parallel_efficiency",
           round_s > 0.0 ? run_until_s / round_s : 0.0)
      .count("sim.sectors_dispatched", result.sectors_dispatched)
      .count("sim.sectors_elided", result.sectors_elided)
      .count("net.recomputes", total.recomputes)
      .count("net.flows_resolved", total.flows_resolved)
      .num("net.flows_per_recompute",
           total.recomputes > 0 ? static_cast<double>(total.flows_resolved) /
                                      static_cast<double>(total.recomputes)
                                : 0.0)
      .count("net.peak_link_flows",
             static_cast<std::uint64_t>(total.peak_link_flows))
      .num("app.spawn_s", total_s("app.spawn"))
      .num("app.drain_s", total_s("app.drain"))
      .count("app.sessions_started", total.sessions_started)
      .count("app.stalls", total.stalls)
      .count("control.appp_ticks", appp_ticks)
      .count("control.infp_ticks", infp_ticks)
      .count("control.steerings", total.steerings)
      .count("eona.published", total.published)
      .count("eona.delivered", total.delivered)
      .count("eona.dropped", total.dropped)
      .count("eona.rate_limited", rate_limited)
      .count("telemetry.beacons", beacons)
      .num("scenarios.build_world_s", total_s("scenarios.build_world"))
      .num("scenarios.coordinate_s", total_s("scenarios.coordinate"))
      .num("scenarios.summarize_s", total_s("scenarios.summarize"))
      .num("mem.setup_bytes_per_session",
           static_cast<double>(rss_setup - std::min(rss_setup, rss0)) /
               sessions)
      .num("mem.run_bytes_per_session",
           static_cast<double>(rss_run - std::min(rss_run, rss0)) / sessions);
  return j;
}

}  // namespace perfbench
