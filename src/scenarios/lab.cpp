#include "scenarios/lab.hpp"

#include <string>

#include "common/error.hpp"
#include "scenarios/broker_outage.hpp"
#include "scenarios/cellular_web.hpp"
#include "scenarios/coarse_control.hpp"
#include "scenarios/energy.hpp"
#include "scenarios/failover.hpp"
#include "scenarios/fairness.hpp"
#include "scenarios/federation.hpp"
#include "scenarios/flashcrowd.hpp"
#include "scenarios/oscillation.hpp"
#include "scenarios/quickstart.hpp"
#include "scenarios/scale.hpp"
#include "sim/trace.hpp"

namespace eona::scenarios {

void Overrides::number(const char* key, double& out) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return;
  out = std::stod(it->second);
  kv_.erase(it);
}

void Overrides::integer(const char* key, std::uint64_t& out) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return;
  out = std::stoull(it->second);
  kv_.erase(it);
}

void Overrides::size(const char* key, std::size_t& out) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return;
  out = static_cast<std::size_t>(std::stoull(it->second));
  kv_.erase(it);
}

void Overrides::boolean(const char* key, bool& out) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return;
  out = it->second == "1" || it->second == "true" || it->second == "yes";
  kv_.erase(it);
}

void Overrides::mode(const char* key, ControlMode& out) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return;
  if (it->second == "baseline") out = ControlMode::kBaseline;
  else if (it->second == "eona") out = ControlMode::kEona;
  else if (it->second == "oracle") out = ControlMode::kOracle;
  else throw ConfigError("mode must be baseline|eona|oracle");
  kv_.erase(it);
}

void Overrides::text(const char* key, std::string& out) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return;
  out = it->second;
  kv_.erase(it);
}

void Overrides::finish() const {
  if (kv_.empty()) return;
  std::string unknown;
  for (const auto& [k, v] : kv_) unknown += " " + k;
  throw ConfigError("unknown keys:" + unknown);
}

namespace {

core::JsonValue qoe_json(const QoeSummary& qoe) {
  core::JsonValue obj = core::JsonValue::object();
  obj.set("sessions", core::JsonValue::number(static_cast<double>(qoe.sessions)));
  obj.set("mean_buffering", core::JsonValue::number(qoe.mean_buffering));
  obj.set("p90_buffering", core::JsonValue::number(qoe.p90_buffering));
  obj.set("mean_bitrate", core::JsonValue::number(qoe.mean_bitrate));
  obj.set("mean_join_time", core::JsonValue::number(qoe.mean_join_time));
  obj.set("mean_engagement", core::JsonValue::number(qoe.mean_engagement));
  obj.set("stalls", core::JsonValue::number(static_cast<double>(qoe.stalls)));
  obj.set("cdn_switches",
          core::JsonValue::number(static_cast<double>(qoe.cdn_switches)));
  obj.set("server_switches",
          core::JsonValue::number(static_cast<double>(qoe.server_switches)));
  return obj;
}

core::JsonValue health_json(const telemetry::DeliveryHealthSnapshot& h) {
  auto count = [](std::uint64_t v) {
    return core::JsonValue::number(static_cast<double>(v));
  };
  core::JsonValue obj = core::JsonValue::object();
  obj.set("kind", core::JsonValue::string("delivery_health"));
  obj.set("publishes", count(h.publishes));
  obj.set("deliveries", count(h.deliveries));
  obj.set("drops", count(h.drops));
  obj.set("duplicates", count(h.duplicates));
  obj.set("fetch_attempts", count(h.fetch_attempts));
  obj.set("retries", count(h.retries));
  obj.set("fresh_hits", count(h.fresh_hits));
  obj.set("stale_hits", count(h.stale_hits));
  obj.set("misses", count(h.misses));
  obj.set("stale_serves", count(h.stale_serves));
  obj.set("staleness_p90", core::JsonValue::number(h.staleness_p90));
  return obj;
}

core::JsonValue run_flashcrowd(Overrides& ov, sim::MetricSet* series_out,
                               sim::TraceWriter* trace,
                               telemetry::ColumnStore* store,
                               RunPerf* perf) {
  FlashCrowdConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  double access_mbps = config.access_capacity / 1e6;
  ov.number("access_capacity_mbps", access_mbps);
  config.access_capacity = mbps(access_mbps);
  double origin_mbps = config.origin_capacity / 1e6;
  ov.number("origin_capacity_mbps", origin_mbps);
  config.origin_capacity = mbps(origin_mbps);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("crowd_background_fraction", config.crowd_background_fraction);
  ov.size("crowd_flows", config.crowd_flows);
  ov.number("crowd_start", config.crowd_start);
  ov.number("crowd_end", config.crowd_end);
  ov.number("run_duration", config.run_duration);
  ov.number("a2i_delay", config.a2i_delay);
  ov.number("i2a_delay", config.i2a_delay);
  // Control-plane fault injection + consumer robustness (E13).
  ov.number("i2a_drop", config.i2a_fault.drop_rate);
  ov.number("i2a_duplicate", config.i2a_fault.duplicate_rate);
  ov.number("i2a_jitter", config.i2a_fault.max_extra_delay);
  ov.number("a2i_drop", config.a2i_fault.drop_rate);
  double outage_start = 0.0, outage_end = 0.0;
  ov.number("outage_start", outage_start);
  ov.number("outage_end", outage_end);
  if (outage_end > outage_start) {
    config.i2a_fault.outages.push_back({outage_start, outage_end});
    config.a2i_fault.outages.push_back({outage_start, outage_end});
  }
  ov.boolean("robust", config.robust_fetch);
  ov.size("max_retries", config.retry.max_retries);
  ov.number("base_backoff", config.retry.base_backoff);
  ov.number("freshness_deadline", config.retry.freshness_deadline);
  ov.number("stale_widening", config.stale_widening);
  // Elastic capacity provisioning (E16): off | reactive | forecast.
  std::string provision = "off";
  ov.text("provision", provision);
  if (provision == "reactive" || provision == "forecast") {
    config.provision.enabled = true;
    config.provision.forecast_driven = provision == "forecast";
    config.provision.step = mbps(20);
    config.provision.max_capacity = mbps(160);
  } else if (provision != "off") {
    throw ConfigError("provision must be off|reactive|forecast");
  }
  double step_mbps = config.provision.step / 1e6;
  ov.number("provision_step_mbps", step_mbps);
  config.provision.step = mbps(step_mbps);
  double max_mbps = config.provision.max_capacity / 1e6;
  ov.number("provision_max_mbps", max_mbps);
  config.provision.max_capacity = mbps(max_mbps);
  ov.number("provision_lead", config.provision.lead_time);
  ov.number("provision_util", config.provision.order_utilization);
  ov.number("provision_headroom", config.provision.headroom);
  ov.number("provision_horizon", config.provision.horizon);
  ov.number("forecast_alpha", config.forecast.alpha);
  ov.number("forecast_beta", config.forecast.beta);
  ov.number("forecast_period", config.forecast.period);
  ov.number("qoe_stall_threshold", config.qoe_stall_threshold);
  ov.text("faults", config.faults);
  ov.finish();

  FlashCrowdResult r = run_flash_crowd(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("flashcrowd"));
  out.set("mode", core::JsonValue::string(to_string(config.mode)));
  out.set("qoe", qoe_json(r.qoe));
  out.set("crowd_qoe", qoe_json(r.crowd_qoe));
  out.set("peak_stalled_fraction",
          core::JsonValue::number(r.peak_stalled_fraction));
  out.set("mean_access_utilization",
          core::JsonValue::number(r.mean_access_utilization));
  out.set("i2a_health", health_json(r.i2a_health));
  out.set("a2i_health", health_json(r.a2i_health));
  out.set("provision", core::JsonValue::string(provision));
  out.set("time_over_qoe_threshold",
          core::JsonValue::number(r.time_over_qoe_threshold));
  out.set("provision_orders",
          core::JsonValue::number(static_cast<double>(r.provision_orders)));
  out.set("final_access_capacity_mbps",
          core::JsonValue::number(r.final_access_capacity / 1e6));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_oscillation_lab(Overrides& ov, sim::MetricSet* series_out,
                               sim::TraceWriter* trace,
                               telemetry::ColumnStore* store,
                               RunPerf* perf) {
  OscillationConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("run_duration", config.run_duration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("appp_period", config.appp_period);
  ov.number("infp_period", config.infp_period);
  ov.number("appp_dwell", config.appp_dwell);
  ov.number("infp_dwell", config.infp_dwell);
  ov.number("a2i_delay", config.a2i_delay);
  ov.number("i2a_delay", config.i2a_delay);
  ov.text("faults", config.faults);
  ov.finish();

  OscillationResult r = run_oscillation(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("oscillation"));
  out.set("mode", core::JsonValue::string(to_string(config.mode)));
  out.set("qoe", qoe_json(r.qoe));
  out.set("appp_switches",
          core::JsonValue::number(static_cast<double>(r.appp_switches)));
  out.set("infp_switches",
          core::JsonValue::number(static_cast<double>(r.infp_switches)));
  out.set("cycling", core::JsonValue::boolean(r.cycling));
  out.set("converged", core::JsonValue::boolean(r.converged));
  out.set("green_path", core::JsonValue::boolean(r.green_path));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_coarse(Overrides& ov, sim::MetricSet* series_out,
                               sim::TraceWriter* trace,
                               telemetry::ColumnStore* store,
                               RunPerf* perf) {
  CoarseControlConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("incident_at", config.incident_at);
  ov.number("run_duration", config.run_duration);
  ov.number("degraded_factor", config.degraded_factor);
  ov.number("arrival_rate", config.arrival_rate);
  ov.text("faults", config.faults);
  ov.finish();

  CoarseControlResult r = run_coarse_control(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("coarse_control"));
  out.set("mode", core::JsonValue::string(to_string(config.mode)));
  out.set("qoe", qoe_json(r.qoe));
  out.set("post_incident", qoe_json(r.post_incident));
  out.set("cdn1_traffic_share", core::JsonValue::number(r.cdn1_traffic_share));
  out.set("cdn2_hit_ratio", core::JsonValue::number(r.cdn2_hit_ratio));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_energy_lab(Overrides& ov, sim::MetricSet* series_out,
                               sim::TraceWriter* trace,
                               telemetry::ColumnStore* store,
                               RunPerf* perf) {
  EnergyScenarioConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.integer("seed", config.seed);
  ov.boolean("eona", config.eona);
  ov.number("scale_down_load", config.scale_down_load);
  ov.number("scale_up_load", config.scale_up_load);
  ov.number("day_rate", config.day_rate);
  ov.number("night_rate", config.night_rate);
  ov.size("cycles", config.cycles);
  ov.text("faults", config.faults);
  ov.finish();

  EnergyScenarioResult r = run_energy(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("energy"));
  out.set("eona", core::JsonValue::boolean(config.eona));
  out.set("qoe", qoe_json(r.qoe));
  out.set("night_qoe", qoe_json(r.night_qoe));
  out.set("saved_fraction", core::JsonValue::number(r.saved_fraction));
  out.set("mean_online", core::JsonValue::number(r.mean_online));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_cellular(Overrides& ov, sim::TraceWriter* trace,
                     telemetry::ColumnStore* store, RunPerf* perf) {
  CellularWebConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.integer("seed", config.seed);
  ov.size("sessions", config.sessions);
  ov.size("sectors", config.sectors);
  ov.number("feature_noise", config.feature_noise);
  ov.number("labeled_fraction", config.labeled_fraction);
  ov.integer("k_anonymity", config.k_anonymity);
  // No data-plane topology to fault here; accept the uniform key but only
  // the empty plan.
  std::string faults;
  ov.text("faults", faults);
  if (!faults.empty())
    throw ConfigError("cellular does not support --faults");
  ov.finish();

  CellularWebResult r = run_cellular_web(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("cellular_web"));
  out.set("evaluated",
          core::JsonValue::number(static_cast<double>(r.evaluated)));
  out.set("inference_mae", core::JsonValue::number(r.inference_mae));
  out.set("a2i_mae", core::JsonValue::number(r.a2i_mae));
  out.set("inference_group_mae",
          core::JsonValue::number(r.inference_group_mae));
  out.set("a2i_group_mae", core::JsonValue::number(r.a2i_group_mae));
  return out;
}

core::JsonValue run_fairness_lab(Overrides& ov, sim::TraceWriter* trace,
                     telemetry::ColumnStore* store, RunPerf* perf) {
  FairnessConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.integer("seed", config.seed);
  ov.boolean("appp1_eona", config.appp1_eona);
  ov.boolean("appp2_eona", config.appp2_eona);
  ov.number("rate1", config.rate1);
  ov.number("rate2", config.rate2);
  ov.number("run_duration", config.run_duration);
  ov.text("faults", config.faults);
  ov.finish();

  FairnessResult r = run_fairness(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("fairness"));
  out.set("appp1", qoe_json(r.appp1));
  out.set("appp2", qoe_json(r.appp2));
  out.set("engagement_gap", core::JsonValue::number(r.engagement_gap));
  out.set("green_path", core::JsonValue::boolean(r.green_path));
  return out;
}

core::JsonValue run_federation_lab(Overrides& ov, sim::TraceWriter* trace,
                                   telemetry::ColumnStore* store,
                                   RunPerf* perf) {
  FederationConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.integer("seed", config.seed);
  ov.boolean("broker", config.broker);
  ov.number("exaggeration", config.exaggeration);
  ov.number("arrival_rate", config.arrival_rate);
  double pool_mbps = config.pool / 1e6;
  ov.number("pool_mbps", pool_mbps);
  config.pool = mbps(pool_mbps);
  double access_mbps = config.access_capacity / 1e6;
  ov.number("access_capacity_mbps", access_mbps);
  config.access_capacity = mbps(access_mbps);
  ov.number("video_duration", config.video_duration);
  ov.number("run_duration", config.run_duration);
  ov.text("faults", config.faults);
  ov.finish();

  FederationResult r = run_federation(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("federation"));
  out.set("broker", core::JsonValue::boolean(config.broker));
  out.set("exaggeration", core::JsonValue::number(config.exaggeration));
  out.set("liar", qoe_json(r.liar));
  out.set("victim1", qoe_json(r.victim1));
  out.set("victim2", qoe_json(r.victim2));
  out.set("victim_mean_engagement",
          core::JsonValue::number(r.victim_mean_engagement));
  out.set("victim_mean_bitrate",
          core::JsonValue::number(r.victim_mean_bitrate));
  out.set("liar_share", core::JsonValue::number(r.liar_share));
  out.set("victim_share", core::JsonValue::number(r.victim_share));
  out.set("clamps", core::JsonValue::number(static_cast<double>(r.clamps)));
  return out;
}

core::JsonValue run_broker_outage_lab(Overrides& ov, sim::TraceWriter* trace,
                                      telemetry::ColumnStore* store,
                                      RunPerf* perf) {
  BrokerOutageConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.integer("seed", config.seed);
  ov.boolean("degraded", config.degraded);
  ov.number("exaggeration", config.exaggeration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("heavy_arrival_rate", config.heavy_arrival_rate);
  double pool_mbps = config.pool / 1e6;
  ov.number("pool_mbps", pool_mbps);
  config.pool = mbps(pool_mbps);
  double access_mbps = config.access_capacity / 1e6;
  ov.number("access_capacity_mbps", access_mbps);
  config.access_capacity = mbps(access_mbps);
  ov.number("video_duration", config.video_duration);
  ov.number("run_duration", config.run_duration);
  ov.number("crash_at", config.crash_at);
  ov.number("restart_at", config.restart_at);
  ov.number("churn_join_at", config.churn_join_at);
  ov.number("churn_leave_at", config.churn_leave_at);
  ov.text("faults", config.faults);
  ov.finish();

  BrokerOutageResult r = run_broker_outage(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("broker_outage"));
  out.set("degraded", core::JsonValue::boolean(config.degraded));
  out.set("qoe", qoe_json(r.qoe));
  out.set("heavy", qoe_json(r.heavy));
  out.set("joiner", qoe_json(r.joiner));
  out.set("rebuffer_seconds", core::JsonValue::number(r.rebuffer_seconds));
  out.set("time_to_reattach", core::JsonValue::number(r.time_to_reattach));
  out.set("reattach_horizon", core::JsonValue::number(r.reattach_horizon));
  out.set("reattaches",
          core::JsonValue::number(static_cast<double>(r.reattaches)));
  out.set("reattach_attempts",
          core::JsonValue::number(static_cast<double>(r.reattach_attempts)));
  out.set("detached_seconds", core::JsonValue::number(r.detached_seconds));
  out.set("epoch_rejected",
          core::JsonValue::number(static_cast<double>(r.epoch_rejected)));
  out.set("clamps", core::JsonValue::number(static_cast<double>(r.clamps)));
  out.set("rate_limited",
          core::JsonValue::number(static_cast<double>(r.rate_limited)));
  out.set("liar_share", core::JsonValue::number(r.liar_share));
  out.set("faults", core::JsonValue::number(static_cast<double>(r.faults)));
  out.set("exchange_checks",
          core::JsonValue::number(static_cast<double>(r.exchange_checks)));
  out.set("auditor_checks",
          core::JsonValue::number(static_cast<double>(r.auditor_checks)));
  return out;
}

core::JsonValue run_failover_lab(Overrides& ov, sim::MetricSet* series_out,
                               sim::TraceWriter* trace,
                               telemetry::ColumnStore* store,
                               RunPerf* perf) {
  FailoverConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("run_duration", config.run_duration);
  ov.number("arrival_rate", config.arrival_rate);
  ov.number("outage_start", config.outage_start);
  ov.number("outage_duration", config.outage_duration);
  ov.number("appp_period", config.appp_period);
  ov.number("infp_period", config.infp_period);
  double cap_b_mbps = config.capacity_b / 1e6;
  ov.number("capacity_b_mbps", cap_b_mbps);
  config.capacity_b = mbps(cap_b_mbps);
  double cap_cx_mbps = config.capacity_cx / 1e6;
  ov.number("capacity_cx_mbps", cap_cx_mbps);
  config.capacity_cx = mbps(cap_cx_mbps);
  double cap_cy_mbps = config.capacity_cy / 1e6;
  ov.number("capacity_cy_mbps", cap_cy_mbps);
  config.capacity_cy = mbps(cap_cy_mbps);
  ov.text("faults", config.faults);
  ov.finish();

  FailoverResult r = run_failover(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("failover"));
  out.set("mode", core::JsonValue::string(to_string(config.mode)));
  out.set("qoe", qoe_json(r.qoe));
  out.set("rebuffer_seconds", core::JsonValue::number(r.rebuffer_seconds));
  out.set("time_to_recovery", core::JsonValue::number(r.time_to_recovery));
  out.set("faults", core::JsonValue::number(static_cast<double>(r.faults)));
  out.set("aborted_transfers",
          core::JsonValue::number(static_cast<double>(r.aborted_transfers)));
  out.set("stranded_sessions",
          core::JsonValue::number(static_cast<double>(r.stranded_sessions)));
  out.set("resumed_sessions",
          core::JsonValue::number(static_cast<double>(r.resumed_sessions)));
  out.set("infp_failovers",
          core::JsonValue::number(static_cast<double>(r.infp_failovers)));
  out.set("auditor_checks",
          core::JsonValue::number(static_cast<double>(r.auditor_checks)));
  if (series_out != nullptr) *series_out = std::move(r.metrics);
  return out;
}

core::JsonValue run_scale_lab(Overrides& ov, sim::TraceWriter* trace,
                              telemetry::ColumnStore* store, RunPerf* perf) {
  // A million-session run emits hundreds of millions of bus events; JSONL
  // traces and store ingestion at that volume are not meaningful artifacts.
  if (trace != nullptr || store != nullptr)
    throw ConfigError("scale does not support --trace/--store");
  ScaleConfig config;
  config.perf = perf;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.size("sessions", config.sessions);
  ov.size("sectors", config.sectors);
  // Threads change only the wall clock, never the output: the result JSON
  // is byte-identical at any worker count (so threads is not echoed below).
  ov.size("threads", config.threads);
  ov.number("run_duration", config.run_duration);
  ov.number("video_duration", config.video_duration);
  ov.number("barrier_period", config.barrier_period);
  double access_mbps = config.access_capacity / 1e6;
  ov.number("access_capacity_mbps", access_mbps);
  config.access_capacity = mbps(access_mbps);
  ov.number("headroom_fraction", config.headroom_fraction);
  ov.boolean("diurnal", config.diurnal);
  ov.number("diurnal_night_frac", config.diurnal_night_frac);
  ov.number("arrival_window", config.arrival_window);
  // Elision, like threads, changes only the wall clock: quiescent sectors
  // skipped at barriers replay the identical event stream when their clock
  // catches up, so the JSON below is byte-identical either way (pinned by
  // scenario_scale_test) and `elide` is not echoed.
  ov.boolean("elide", config.elide_quiescent);
  // Sector-sharded worlds have no single chaos clock; accept the uniform
  // key but only the empty plan.
  std::string faults;
  ov.text("faults", faults);
  if (!faults.empty())
    throw ConfigError("scale does not support --faults");
  ov.finish();

  ScaleResult r = run_scale(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("scale"));
  out.set("mode", core::JsonValue::string(to_string(config.mode)));
  out.set("sessions",
          core::JsonValue::number(static_cast<double>(r.arrivals)));
  out.set("sectors",
          core::JsonValue::number(static_cast<double>(config.sectors)));
  out.set("qoe", qoe_json(r.qoe));
  out.set("events", core::JsonValue::number(static_cast<double>(r.events)));
  out.set("peak_concurrent",
          core::JsonValue::number(static_cast<double>(r.peak_concurrent)));
  out.set("reallocations",
          core::JsonValue::number(static_cast<double>(r.reallocations)));
  out.set("barrier_rounds",
          core::JsonValue::number(static_cast<double>(r.barrier_rounds)));
  // Per-sector detail only at debuggable scale; thousands of sectors would
  // swamp the output.
  if (config.sectors <= 16) {
    core::JsonValue per = core::JsonValue::array();
    for (const QoeSummary& qoe : r.per_sector) per.push_back(qoe_json(qoe));
    out.set("per_sector", std::move(per));
  }
  return out;
}

core::JsonValue run_quickstart_lab(Overrides& ov, sim::TraceWriter* trace,
                     telemetry::ColumnStore* store, RunPerf* perf) {
  QuickstartConfig config;
  config.trace = trace;
  config.store = store;
  config.perf = perf;
  ov.mode("mode", config.mode);
  ov.integer("seed", config.seed);
  ov.number("arrival_rate", config.arrival_rate);
  double access_mbps = config.access_capacity / 1e6;
  ov.number("access_capacity_mbps", access_mbps);
  config.access_capacity = mbps(access_mbps);
  ov.number("run_duration", config.run_duration);
  ov.text("faults", config.faults);
  ov.finish();

  QuickstartResult r = run_quickstart(config);
  core::JsonValue out = core::JsonValue::object();
  out.set("scenario", core::JsonValue::string("quickstart"));
  out.set("mode", core::JsonValue::string(to_string(config.mode)));
  out.set("qoe", qoe_json(r.qoe));
  return out;
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "flashcrowd", "oscillation", "coarse",   "energy",   "cellular",
      "fairness",   "federation",  "quickstart", "failover", "scale",
      "broker_outage"};
  return names;
}

core::JsonValue run_scenario_json(
    const std::string& scenario,
    const std::map<std::string, std::string>& overrides,
    sim::MetricSet* series_out, sim::TraceWriter* trace,
    telemetry::ColumnStore* store, RunPerf* perf) {
  Overrides ov(overrides);
  if (scenario == "flashcrowd")
    return run_flashcrowd(ov, series_out, trace, store, perf);
  if (scenario == "oscillation")
    return run_oscillation_lab(ov, series_out, trace, store, perf);
  if (scenario == "coarse")
    return run_coarse(ov, series_out, trace, store, perf);
  if (scenario == "energy")
    return run_energy_lab(ov, series_out, trace, store, perf);
  if (scenario == "cellular") return run_cellular(ov, trace, store, perf);
  if (scenario == "fairness") return run_fairness_lab(ov, trace, store, perf);
  if (scenario == "federation")
    return run_federation_lab(ov, trace, store, perf);
  if (scenario == "quickstart")
    return run_quickstart_lab(ov, trace, store, perf);
  if (scenario == "failover")
    return run_failover_lab(ov, series_out, trace, store, perf);
  if (scenario == "scale") return run_scale_lab(ov, trace, store, perf);
  if (scenario == "broker_outage")
    return run_broker_outage_lab(ov, trace, store, perf);
  throw ConfigError("unknown scenario '" + scenario + "'");
}

}  // namespace eona::scenarios
