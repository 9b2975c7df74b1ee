// Distributed imaging: form one image across a simulated multi-node
// cluster (the in-process MPI substitute). The formation service with
// `shards = ranks` routes the job through its shard router onto a pool of
// in-process ranks: the image is cut into per-rank bands (image dimensions
// first, paper §4.2), each rank replays its band's plan on its own tile
// executor, and the front end gathers the tiles. The result is compared
// with a local (single-node) service, followed by the 3D-torus model's
// communication estimate the weak-scaling analysis builds on.
//
// Build & run:  ./build/examples/distributed_imaging [--ranks 4]
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <memory>
#include <utility>

#include "cluster/torus_model.h"
#include "common/rng.h"
#include "common/snr.h"
#include "geometry/trajectory.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "sim/collector.h"
#include "sim/scene.h"

namespace {

using namespace sarbp;

/// Forms the whole grid through a service with `shards` ranks (1 = the
/// local, single-node service).
service::JobResult form(int shards, const geometry::ImageGrid& grid,
                        std::shared_ptr<const sim::PhaseHistory> history,
                        obs::Registry& metrics) {
  service::ServiceConfig config;
  config.shards = shards;
  // Split even this small image across the ranks.
  config.shard_small_pixels = 0;
  config.metrics = &metrics;
  service::ImageFormationService srv(std::move(config));
  service::ImageFormationRequest request;
  request.grid = grid;
  request.pulses = std::move(history);
  // 32-px ASR blocks give the 128-px image four block rows to band-split.
  request.asr_block_w = request.asr_block_h = 32;
  auto outcome = srv.submit(std::move(request));
  if (!outcome.admitted()) {
    service::JobResult rejected;
    rejected.error = "request rejected";
    return rejected;
  }
  return outcome.handle->wait();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sarbp;
  int ranks = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks") == 0) ranks = std::atoi(argv[i + 1]);
  }

  const Index image = 128;
  const Index pulses = 64;
  const geometry::ImageGrid grid(image, image, 0.5);

  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.066;
  Rng rng(17);
  const auto poses = geometry::circular_orbit(orbit, {}, pulses, rng);

  sim::ClusterSceneParams scene_params;
  const auto scene = sim::make_cluster_scene(grid, scene_params, rng);
  sim::CollectorParams collector;
  const auto history = sim::collect(collector, grid, scene, poses, rng);

  std::printf("forming a %lldx%lld image from %lld pulses on %d simulated "
              "ranks...\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses), ranks);

  const auto shared_history =
      std::make_shared<const sim::PhaseHistory>(history);
  obs::Registry sharded_metrics;
  const service::JobResult distributed =
      form(ranks, grid, shared_history, sharded_metrics);
  // Single-node baseline for verification.
  obs::Registry local_metrics;
  const service::JobResult local = form(1, grid, shared_history, local_metrics);
  if (distributed.state != service::JobState::kDone ||
      local.state != service::JobState::kDone) {
    std::fprintf(stderr, "formation failed: %s%s\n", distributed.error.c_str(),
                 local.error.c_str());
    return 1;
  }
  const auto flat_a = distributed.image.flat();
  const auto flat_b = local.image.flat();
  if (std::equal(flat_a.begin(), flat_a.end(), flat_b.begin())) {
    std::printf("sharded vs local image parity: bit-identical\n");
  } else {
    std::printf("sharded vs local image parity: %.1f dB SNR\n",
                snr_db(distributed.image, local.image));
  }

  std::printf("\nshard routing:\n");
  std::printf("  grid-split jobs     : %llu\n",
              static_cast<unsigned long long>(
                  sharded_metrics.counter("shard.jobs.grid_split").value()));
  std::printf("  pulse-scatter jobs  : %llu\n",
              static_cast<unsigned long long>(
                  sharded_metrics.counter("shard.jobs.pulse_scatter").value()));
  std::printf("  parts dispatched    : %llu\n",
              static_cast<unsigned long long>(
                  sharded_metrics.counter("shard.parts.dispatched").value()));
  std::printf("  critical path       : %.3f s (slowest rank)\n",
              distributed.compute_seconds);
  std::printf("  local compute       : %.3f s\n", local.compute_seconds);

  // What the interconnect model says this costs at scale.
  const cluster::InterconnectModel net;
  const auto volumes = cluster::communication_volumes(
      ranks, image, pulses, history.samples_per_pulse(), 31, 25, 25);
  std::printf("\n3D-torus model (2 GB/s channels), %d nodes:\n", ranks);
  std::printf("  per-node pulse scatter : %.3f ms\n",
              1e3 * net.mpi_seconds(volumes.pulse_scatter_bytes));
  std::printf("  per-node boundary exch : %.3f ms\n",
              1e3 * net.mpi_seconds(volumes.boundary_bytes));
  std::printf("  average hop count      : %.2f\n",
              net.average_hops(ranks));
  return 0;
}
