#pragma once

// Umbrella header: the MicroEdge public API in one include.
//
//   #include "microedge.hpp"
//
// Layering (bottom to top):
//   util      -> time, Status/StatusOr, RNG, histograms
//   sim       -> discrete-event simulator
//   models    -> model zoo (latencies, parameter sizes, TPU-unit math)
//   cluster   -> simulated RPis, Coral TPUs, network, cost model
//   orch      -> K3s-surface: YAML pod specs, node registry, API server
//   core      -> the paper's contribution: TPU units, Algorithm 1 admission
//                control, workload partitioning, co-compile planning,
//                reclamation, failure recovery, defragmentation
//   dataplane -> TPU Service / LB Service / TPU Client
//   apps      -> camera pipelines: Coral-Pie, BodyPix, cascades
//   trace     -> MAF-like workload generation & replay
//   metrics   -> utilization, SLO, latency breakdowns
//   testbed   -> control plane (the K3s extended scheduler and its
//                loops over one TPU pool), experiment harnesses + offline
//                planner

#include "apps/bodypix.hpp"
#include "apps/cascade.hpp"
#include "apps/coral_pie.hpp"
#include "apps/pipeline.hpp"
#include "cluster/cost.hpp"
#include "cluster/topology.hpp"
#include "core/admission.hpp"
#include "core/dedicated_allocator.hpp"
#include "core/defragmenter.hpp"
#include "core/failure_recovery.hpp"
#include "core/reclamation.hpp"
#include "core/tpu_units.hpp"
#include "dataplane/dataplane.hpp"
#include "metrics/breakdown.hpp"
#include "metrics/report.hpp"
#include "metrics/slo.hpp"
#include "metrics/utilization.hpp"
#include "models/zoo.hpp"
#include "orch/api_server.hpp"
#include "orch/spec.hpp"
#include "testbed/control_plane.hpp"
#include "testbed/planner.hpp"
#include "testbed/scenarios.hpp"
#include "testbed/serverless_baseline.hpp"
#include "testbed/testbed.hpp"
#include "trace/replay.hpp"
