#include "ladder.h"

#include <chrono>
#include <stdexcept>

#include "backprojection/backprojector.h"
#include "backprojection/soa_tile.h"
#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "obs/metrics.h"
#include "pipeline/ccd.h"
#include "pipeline/cfar.h"
#include "pipeline/registration.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "streaming/streaming.h"
#include "streaming/subaperture_cache.h"

namespace perfbench {

using namespace sarbp;

namespace {

/// Per-geometry timing budget of the kernel rungs, seconds.
constexpr double kRungBudgetS = 0.6;
/// Cache-hit jobs of the closed-loop service rung (after one miss).
constexpr int kServiceRungHits = 4;

Region full_region(const geometry::ImageGrid& grid) {
  return Region{0, 0, grid.width(), grid.height()};
}

std::shared_ptr<const service::FormationPlan> plan_for(const Collection& c,
                                                       Index block) {
  return service::build_formation_plan(c.grid, full_region(c.grid), block,
                                       block, *c.history);
}

exec::PlanView view_of(const service::FormationPlan& plan) {
  exec::PlanView view;
  view.blocks = plan.blocks.data();
  view.num_blocks = static_cast<Index>(plan.blocks.size());
  view.pulse_order = plan.pulse_order.data();
  view.num_pulses = plan.num_pulses();
  view.tables = plan.tables.data();
  view.region_x0 = plan.key.region.x0;
  view.region_y0 = plan.key.region.y0;
  return view;
}

/// Median seconds of one plan replay through `workers` executor threads.
double exec_seconds(const std::shared_ptr<const service::FormationPlan>& plan,
                    const Collection& c, int workers, double budget_s) {
  obs::Registry registry;
  exec::ExecOptions options;
  options.workers = workers;
  options.metrics = &registry;
  exec::TileExecutor executor(std::move(options));
  return median(time_repeated(
      [&] {
        Span span("exec.run");
        auto tile = std::make_shared<bp::SoaTile>(c.grid.width(),
                                                  c.grid.height());
        executor.run(service::make_plan_replay_group(
            plan, c.history, workers, 0, tile, nullptr, nullptr));
      },
      3, budget_s));
}

struct KernelRates {
  double scalar_bp_s = 0.0;      ///< over every job geometry
  double simd_bp_s = 0.0;        ///< over every job geometry
  double first_scalar_bp_s = 0.0;  ///< jobs[0] only
};

KernelRates kernel_rungs(const LadderInputs& in, MetricList& out) {
  std::vector<double> build_s, plan_bytes;
  double bp = 0.0, scalar_s = 0.0, simd_s = 0.0;
  KernelRates rates;
  obs::Registry registry;
  exec::BackendSpec simd_spec;
  simd_spec.kind = exec::BackendSpec::Kind::kHostSimd;
  const auto simd = exec::make_backend(simd_spec, 0.5, &registry);
  const double budget = kRungBudgetS / static_cast<double>(in.jobs.size());
  for (const Collection& c : in.jobs) {
    std::shared_ptr<const service::FormationPlan> plan;
    build_s.push_back(median(time_repeated(
        [&] {
          Span span("asr.build_formation_plan");
          plan = plan_for(c, in.block);
        },
        1, budget / 4)));
    plan_bytes.push_back(static_cast<double>(plan->bytes));

    const double scalar = median(time_repeated(
        [&] {
          Span span("service.execute_plan");
          bp::SoaTile tile(c.grid.width(), c.grid.height());
          service::execute_plan(*plan, *c.history, tile, nullptr);
        },
        2, budget));
    const exec::PlanView view = view_of(*plan);
    const double vector = median(time_repeated(
        [&] {
          Span span("exec.simd_sweep");
          bp::SoaTile tile(c.grid.width(), c.grid.height());
          for (Index b = 0; b < view.num_blocks; ++b) {
            simd->sweep_block(view, *c.history, b, 0, view.num_pulses, tile);
          }
        },
        2, budget));
    if (&c == &in.jobs.front()) {
      rates.first_scalar_bp_s = c.backprojections() / scalar;
    }
    bp += c.backprojections();
    scalar_s += scalar;
    simd_s += vector;
  }
  rates.scalar_bp_s = bp / scalar_s;
  rates.simd_bp_s = bp / simd_s;
  out.add("asr.plan_build_s", median(build_s), "s", build_s.size(), "ladder");
  out.add("asr.plan_bytes", median(plan_bytes), "bytes", plan_bytes.size(),
          "ladder");
  out.add("backprojection.scalar_bp_per_s", rates.scalar_bp_s, "bp/s",
          in.jobs.size(), "ladder");
  out.add("backprojection.simd_bp_per_s", rates.simd_bp_s, "bp/s",
          in.jobs.size(), "ladder");
  out.add("backprojection.bp_per_job", in.bp_per_job, "count", 1, "ladder");
  return rates;
}

/// Closed-loop formation jobs at jobs[0]'s shape: one plan miss, then hits.
/// Returns the hits' backprojections per second.
double service_rung(const LadderInputs& in, MetricList& out) {
  obs::Registry registry;
  service::ServiceConfig config;
  config.workers = host_workers();
  config.metrics = &registry;
  service::ImageFormationService service(config);
  const Collection& c = in.jobs.front();
  std::vector<double> queue, hit, miss, compute;
  std::uint64_t refused = 0;
  double hit_seconds = 0.0;
  for (int i = 0; i <= kServiceRungHits; ++i) {
    service::ImageFormationRequest req;
    req.grid = c.grid;
    req.pulses = c.history;
    req.asr_block_w = in.block;
    req.asr_block_h = in.block;
    const auto t0 = Clock::now();
    Span span("service.job");
    auto outcome = service.submit(std::move(req));
    if (!outcome.admitted()) {
      ++refused;
      continue;
    }
    const service::JobResult& r = outcome.handle->wait();
    if (r.state != service::JobState::kDone) continue;
    queue.push_back(r.queue_seconds);
    (r.plan_cache_hit ? hit : miss).push_back(r.setup_seconds);
    compute.push_back(r.compute_seconds);
    if (r.plan_cache_hit) hit_seconds += seconds_between(t0, Clock::now());
  }
  const Tail q = tail(queue);
  out.add("service.queue_s_p50", median(queue), "s", queue.size(), "ladder");
  out.add("service.queue_s_tail", q.value, "s", q.samples, "ladder");
  out.add("service.setup_miss_s_p50", median(miss), "s", miss.size(), "ladder");
  out.add("service.setup_hit_s_p50", median(hit), "s", hit.size(), "ladder");
  out.add("service.compute_s_p50", median(compute), "s", compute.size(),
          "ladder");
  const std::size_t lookups = hit.size() + miss.size();
  out.add("service.plan_hit_share",
          lookups > 0 ? static_cast<double>(hit.size()) / lookups : 0.0,
          "share", lookups, "ladder");
  out.add("service.rejected_share",
          static_cast<double>(refused) / (kServiceRungHits + 1), "share",
          kServiceRungHits + 1, "ladder");
  return hit_seconds > 0.0
             ? c.backprojections() * static_cast<double>(hit.size()) /
                   hit_seconds
             : 0.0;
}

/// Two closed-loop streaming sessions sharing a sub-aperture cache replay
/// jobs[0]'s pulses chunk by chunk; the second one finds every chunk cached.
void streaming_rung(const LadderInputs& in, MetricList& out) {
  obs::Registry registry;
  service::ServiceConfig config;
  config.workers = host_workers();
  config.metrics = &registry;
  service::ImageFormationService service(config);
  streaming::SubApertureCacheConfig cache_config;
  cache_config.metrics = &registry;
  streaming::SubApertureCache cache(cache_config);
  const Collection& c = in.jobs.front();
  streaming::StreamConfig stream_config;
  stream_config.grid = c.grid;
  stream_config.cache = &cache;
  const Index chunk = stream_config.chunk_pulses;
  std::vector<double> latency;
  streaming::StreamStats total;
  for (int s = 0; s < 2; ++s) {
    streaming::StreamSession session =
        streaming::open_stream(service, stream_config);
    for (Index p = 0; p + chunk <= c.history->num_pulses(); p += chunk) {
      Span span("streaming.update");
      session.push(slice(*c.history, p, p + chunk));
      session.wait_idle(std::chrono::seconds(30));
      if (const auto snap = session.latest()) {
        latency.push_back(snap->latency_seconds);
      }
    }
    const streaming::StreamStats st = session.stats();
    total.updates_completed += st.updates_completed;
    total.reanchors += st.reanchors;
    total.backprojections += st.backprojections;
    total.cache_hits += st.cache_hits;
    session.close();
  }
  const double updates = static_cast<double>(total.updates_completed);
  const Tail t = tail(latency);
  out.add("streaming.update_s_p50", median(latency), "s", latency.size(),
          "ladder");
  out.add("streaming.update_s_tail", t.value, "s", t.samples, "ladder");
  out.add("streaming.cache_hit_share",
          updates > 0 ? static_cast<double>(total.cache_hits) / updates : 0.0,
          "share", total.updates_completed, "ladder");
  out.add("streaming.bp_per_update",
          updates > 0 ? static_cast<double>(total.backprojections) / updates
                      : 0.0,
          "count", total.updates_completed, "ladder");
  out.add("streaming.reanchor_share",
          updates > 0 ? static_cast<double>(total.reanchors) / updates : 0.0,
          "share", total.updates_completed, "ladder");
}

/// The pipeline's stages called directly on the surveillance frame shape.
void pipeline_rung(const Collection& reference_pass,
                   const Collection& current_pass, MetricList& out) {
  const pipeline::PipelineConfig config = surveillance_config();
  const geometry::ImageGrid& grid = current_pass.grid;
  const bp::Backprojector backprojector(grid, config.backprojection);
  const Grid2D<CFloat> reference =
      backprojector.form_image(*reference_pass.history);
  Grid2D<CFloat> current;
  const double bp_s = median(time_repeated(
      [&] {
        Span span("bp.add_pulses");
        current = Grid2D<CFloat>(grid.width(), grid.height());
        backprojector.add_pulses(*current_pass.history, current);
      },
      3, 0.3));
  const pipeline::Registrar registrar(config.registration);
  Grid2D<CFloat> registered;
  const double reg_s = median(time_repeated(
      [&] {
        Span span("pipeline.register_image");
        registered = registrar.register_image(current, reference);
      },
      3, 0.3));
  Grid2D<float> correlation;
  const double ccd_s = median(time_repeated(
      [&] {
        Span span("pipeline.ccd");
        correlation = pipeline::ccd(registered, reference, config.ccd);
      },
      3, 0.2));
  const double cfar_s = median(time_repeated(
      [&] {
        Span span("pipeline.cfar_detect");
        const pipeline::CfarResult r =
            pipeline::cfar_detect(correlation, config.cfar);
        (void)r;
      },
      3, 0.1));
  out.add("pipeline.backprojection_s", bp_s, "s", 3, "ladder");
  out.add("pipeline.registration_s", reg_s, "s", 3, "ladder");
  out.add("pipeline.ccd_s", ccd_s, "s", 3, "ladder");
  out.add("pipeline.cfar_s", cfar_s, "s", 3, "ladder");
  out.add("pipeline.non_bp_share", (reg_s + ccd_s + cfar_s) / bp_s, "share", 3,
          "ladder");
}

}  // namespace

MetricList run_ladder(const LadderInputs& in, const Phase& traffic,
                      std::uint64_t seed) {
  if (in.jobs.empty()) throw std::runtime_error("ladder: no job geometry");
  MetricList out;
  const KernelRates rates = kernel_rungs(in, out);

  // Executor scaling: one plan replay on every core vs on one.
  const Collection& first = in.jobs.front();
  const auto plan = plan_for(first, in.block);
  const int workers = host_workers();
  const double one = exec_seconds(plan, first, 1, 0.5);
  const double all = exec_seconds(plan, first, workers, 0.5);
  const double exec_bp_s = first.backprojections() / all;
  out.add("exec.speedup", one / all, "x", 3, "ladder");
  out.add("exec.efficiency",
          exec_bp_s / (workers * rates.first_scalar_bp_s), "share", 3,
          "ladder");

  double service_bp_s = 0.0;
  if (in.service_traffic) {
    for (const Metric& m : traffic.layer.all()) {
      if (m.name.rfind("service.", 0) == 0) out.add(m);
    }
    service_bp_s = traffic.wall_s > 0 ? traffic.bp_done / traffic.wall_s : 0.0;
  } else {
    service_bp_s = service_rung(in, out);
  }
  out.add("service.efficiency", service_bp_s / exec_bp_s, "share", 1,
          in.service_traffic ? "traffic" : "ladder");

  if (in.stream_traffic) {
    for (const Metric& m : traffic.layer.all()) {
      if (m.name.rfind("streaming.", 0) == 0) out.add(m);
    }
  } else {
    streaming_rung(in, out);
  }
  const double update_s = out.value("streaming.update_s_p50");
  out.add("streaming.efficiency",
          update_s > 0 ? out.value("streaming.bp_per_update") / update_s /
                             rates.first_scalar_bp_s
                       : 0.0,
          "share", out.find("streaming.update_s_p50")->samples,
          out.find("streaming.update_s_p50")->source);

  if (in.pipeline_reference.history != nullptr) {
    pipeline_rung(in.pipeline_reference, in.pipeline_current, out);
  } else {
    std::vector<double> unused;
    const RepeatPass scene = make_repeat_pass(seed, 1, unused);
    pipeline_rung(scene.passes[0], scene.passes[1], out);
  }
  return out;
}

}  // namespace perfbench
