#pragma once

// Standalone per-layer probes of the traced run: each times one public
// call from outside, on the workload's own inputs.

#include <cstddef>
#include <vector>

#include "fleet/runtime/concurrent_server.hpp"
#include "inputs.hpp"
#include "serving.hpp"

namespace fleetbench {

struct LearningProbe {
  double plan_submit_ns = 0.0;
  double tau_thres_ns = 0.0;
  double similarity_ns = 0.0;
};

/// AsyncAggregator::plan_submit, tau_thres() and similarity_of on a
/// standalone aggregator fed session 0's updates, timed once its
/// staleness window is full.
LearningProbe probe_learning(const Inputs& inputs, const SentLog& log);

/// The active KernelTable's axpy over `n` floats, GB/s (12 bytes touched
/// per element: read x, read and write y).
double probe_axpy_gbps(std::size_t n);

/// ConcurrentFleetServer::current(id) on a quiet host, ns per call.
double probe_snapshot_read_ns(const fleet::runtime::ConcurrentFleetServer& server,
                              fleet::core::ModelId id);

/// I-Prof predict_batch over the request pool, ns per call.
double probe_predict_ns(const Inputs& inputs);

/// handle_request on a quiet host, ns per call.
double probe_handle_request_ns(fleet::runtime::ConcurrentFleetServer& server,
                               const std::vector<fleet::core::ModelId>& ids,
                               const Inputs& inputs);

}  // namespace fleetbench
