// alba.hpp — the single public entry point to the ALBADross library.
//
// This facade is the Tier-1 API surface (see DESIGN.md, "API tiers"):
// everything an application needs to reproduce the paper's workflow or to
// deploy a trained model, with source stability across PRs. The exported
// surface, in pipeline order:
//
//   dataset      DatasetConfig, volta_config/eclipse_config/tiny_config,
//                build_experiment_data, ExperimentData
//   splits       make_split, prepare_split, PreparedSplit, make_al_setup
//   training     ActiveLearner, LabelOracle, QueryStrategy, make_model_factory,
//                table4_optimum, grid_search_cv, evaluation metrics
//   explaining   QueryExplainer (annotator-assist views)
//   persistence  save_classifier / load_classifier (bare models),
//                ModelBundle / export_model_bundle (deployable bundles)
//   streaming    StreamIngestor, StreamIngestConfig, GapPolicy (per-node
//                ring buffers over a 1 Hz feed, sliding-window triggering
//                of raw windows), TriggeredWindow, IngestStats
//   wire         the framed socket transport in front of StreamIngestor:
//                WireClient (buffered exactly-once delivery, reconnect and
//                resume), IngestServer (typed decode errors, per-node
//                backpressure budget, snapshot/restart), TcpListener /
//                tcp_connect / LoopbackHub transports, WireChaos (seeded
//                network fault injection)
//   serving      Diagnoser (the tier-uniform interface: DiagnoseRequest in,
//                DiagnosisResult out, free diagnose_with_retry over any
//                tier); DiagnosisService, ServingConfig, Diagnosis,
//                ServingStats; ServiceHost (admission control, deadlines,
//                health, drain, hot reload with rollback), ServingFleet
//                (consistent-hash routing, failover, canary rollout),
//                ServingChaos / FleetChaos (fault injection)
//   utilities    logging, CLI flags, text tables, string helpers,
//                ThreadPool, Deadline, backoff/retry
//
// Subsystem headers (core/..., ml/..., features/...) remain includable as
// the Tier-2 surface for tools that need more than the facade, but
// examples and downstream applications should start here.
#pragma once

#include "active/explain.hpp"
#include "active/learner.hpp"
#include "anomaly/anomaly.hpp"
#include "common/backoff.hpp"
#include "common/cli.hpp"
#include "common/deadline.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "serving/chaos.hpp"
#include "serving/diagnoser.hpp"
#include "serving/diagnosis_service.hpp"
#include "serving/fleet.hpp"
#include "serving/hot_reload.hpp"
#include "serving/model_bundle.hpp"
#include "serving/service_host.hpp"
#include "streaming/ingest.hpp"
#include "streaming/ingest_server.hpp"
#include "wire/chaos.hpp"
#include "wire/client.hpp"
#include "wire/frame.hpp"
#include "wire/transport.hpp"
