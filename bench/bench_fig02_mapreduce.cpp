// Figure 2: MapReduce/Spark acceleration from the HydraDB cache layer.
//
// Each job runs three ways: on in-memory HDFS over kernel TCP (the
// baseline), on HydraDB configured with TCP-like interconnect parameters,
// and on HydraDB over the RDMA fabric. Paper shape: biggest speedups for
// I/O-intensive Hadoop jobs (up to ~18x), modest gains for compute-heavy
// Spark jobs (4-41%), and RDMA above TCP in every single case.
#include <cstdio>
#include <vector>

#include "apps/hdfs_lite.hpp"
#include "apps/mapreduce.hpp"
#include "bench_util.hpp"

namespace {

hydra::db::ClusterOptions cache_options(bool tcp_like) {
  using namespace hydra;
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 4;
  opts.client_nodes = 4;
  opts.clients_per_node = 2;
  opts.enable_swat = false;
  opts.shard_template.store.arena_bytes = 768ull << 20;
  opts.shard_template.msg_slot_bytes = 5 << 20;
  opts.shard_template.max_connections = 16;
  opts.client_template.resp_slot_bytes = 5 << 20;
  opts.client_template.max_shard_connections = 8;
  // A 4 MB GET must be timed, not timed out: a wave of eight moves 32 MB
  // through the server NIC (over 6 ms at the RDMA rate, far longer over the
  // TCP-like link), past the 5 ms default.
  opts.client_template.request_timeout = 500 * kMillisecond;
  if (tcp_like) {
    // "HydraDB (TCP)": same middleware, interconnect degraded to the
    // kernel stack's latency and effective bandwidth.
    opts.cost.rdma_bytes_per_ns = opts.cost.tcp_bytes_per_ns;
    opts.cost.rdma_propagation = opts.cost.tcp_latency;
    opts.cost.nic_tx_overhead = opts.cost.tcp_kernel_cost;
    opts.cost.nic_rx_overhead = opts.cost.tcp_kernel_cost;
  }
  return opts;
}

}  // namespace

int main() {
  using namespace hydra;
  bench::ShapeChecker shape;

  std::printf("Figure 2: job speedup over in-memory HDFS\n");
  std::printf("%-18s %12s %12s %12s %10s %10s\n", "job", "hdfs_ms", "hydraTCP_ms",
              "hydraRDMA_ms", "spdup_tcp", "spdup_rdma");

  std::vector<double> rdma_speedups, tcp_speedups;
  std::vector<double> io_speedups, spark_speedups;

  for (const auto& job : apps::paper_job_mix()) {
    // Baseline: in-memory HDFS.
    sim::Scheduler sched;
    fabric::Fabric fabric{sched};
    const NodeId dn = fabric.add_node("datanode").id();
    std::vector<NodeId> workers;
    for (int i = 0; i < 4; ++i) workers.push_back(fabric.add_node("worker").id());
    apps::HdfsLite hdfs(sched, fabric, apps::HdfsConfig{dn});
    apps::load_blocks_into_hdfs(hdfs, job);
    const Duration hdfs_ms = apps::run_job_on_hdfs(sched, hdfs, workers, job);

    Duration times[2];  // [0]=tcp-like, [1]=rdma
    for (int variant = 0; variant < 2; ++variant) {
      db::HydraCluster cluster(cache_options(/*tcp_like=*/variant == 0));
      apps::load_blocks_into_hydradb(cluster, job);
      times[variant] = apps::run_job_on_hydradb(cluster, job);
    }

    const double spd_tcp = static_cast<double>(hdfs_ms) / static_cast<double>(times[0]);
    const double spd_rdma = static_cast<double>(hdfs_ms) / static_cast<double>(times[1]);
    std::printf("%-18s %12.2f %12.2f %12.2f %9.2fx %9.2fx\n", job.name.c_str(),
                static_cast<double>(hdfs_ms) / 1e6, static_cast<double>(times[0]) / 1e6,
                static_cast<double>(times[1]) / 1e6, spd_tcp, spd_rdma);

    tcp_speedups.push_back(spd_tcp);
    rdma_speedups.push_back(spd_rdma);
    if (job.compute_per_byte < 0.01) {
      io_speedups.push_back(spd_rdma);
    } else if (job.name.rfind("Spark", 0) == 0) {
      spark_speedups.push_back(spd_rdma);
    }
  }

  for (std::size_t i = 0; i < rdma_speedups.size(); ++i) {
    shape.expect(rdma_speedups[i] > tcp_speedups[i],
                 "RDMA outperforms TCP for every job (paper: all cases)");
  }
  for (const double s : io_speedups) {
    shape.expect(s > 2.0, "I/O-intensive jobs gain severalfold (paper: up to 17.9x)");
  }
  for (const double s : spark_speedups) {
    shape.expect(s > 1.0 && s < 2.5,
                 "compute-heavy Spark jobs gain modestly (paper: 4-41%)");
  }
  double max_io = 0, max_spark = 0;
  for (const double s : io_speedups) max_io = std::max(max_io, s);
  for (const double s : spark_speedups) max_spark = std::max(max_spark, s);
  shape.expect(max_io > max_spark, "I/O-bound jobs benefit most (Amdahl)");
  return shape.summarize("fig02_mapreduce");
}
