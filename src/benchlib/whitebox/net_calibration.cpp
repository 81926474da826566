#include "benchlib/whitebox/net_calibration.hpp"

#include <limits>
#include <stdexcept>

namespace cal::benchlib {

namespace {

/// The three campaign stages shared by the table-returning and streaming
/// entry points; the measure closure indexes factors resolved from the
/// plan before it is moved into the Campaign.
struct NetCampaignSetup {
  Campaign campaign;
  MeasureFn measure;
};

NetCampaignSetup make_net_campaign(const sim::net::NetworkSim& network,
                                   const NetCalibrationOptions& options) {
  using sim::net::NetOp;

  Plan plan =
      DesignBuilder(options.seed)
          .add(Factor::levels("op", {Value("send"), Value("recv"),
                                     Value("pingpong")},
                              FactorCategory::kExperimentPlan))
          .add(Factor::log_uniform_real("size_bytes", options.min_size,
                                        options.max_size,
                                        FactorCategory::kExperimentPlan))
          .samples_per_cell(options.samples_per_op)
          .randomize(true)
          .build();

  Engine::Options engine_options;
  engine_options.seed = options.seed ^ 0xC0FFEE;
  engine_options.inter_run_gap_s = options.inter_run_gap_s;
  // Perturbation windows are time-dependent: force one worker (and drop
  // any shared pool) so the engine runs inline and they see true
  // timestamps.
  const bool time_dependent = !network.config().perturbations.empty();
  engine_options.threads = time_dependent ? 1 : options.threads;
  engine_options.pool = time_dependent ? nullptr : options.pool;
  Engine engine({"time_us"}, engine_options);

  Metadata md = Metadata::capture_build();
  md.set("benchmark", "whitebox_net_calibration");
  md.set("link", network.link().name);
  md.set("size_min_bytes", options.min_size);
  md.set("size_max_bytes", options.max_size);
  md.set("size_distribution", "log_uniform (Eq. 1)");

  const std::size_t op_idx = plan.factor_index("op");
  const std::size_t size_idx = plan.factor_index("size_bytes");
  MeasureFn measure = [&network, op_idx, size_idx](
                          const PlannedRun& run,
                          MeasureContext& ctx) -> MeasureResult {
    const std::string& op_name = run.values[op_idx].as_string();
    const double size = run.values[size_idx].as_real();
    NetOp op = NetOp::kPingPong;
    if (op_name == "send") op = NetOp::kSendOverhead;
    else if (op_name == "recv") op = NetOp::kRecvOverhead;
    const double us = network.measure_us(op, size, ctx.now_s, *ctx.rng);
    return MeasureResult{{us}, us * 1e-6};
  };

  return NetCampaignSetup{
      Campaign(std::move(plan), std::move(engine), std::move(md)),
      std::move(measure)};
}

}  // namespace

CampaignResult run_net_calibration(const sim::net::NetworkSim& network,
                                   const NetCalibrationOptions& options) {
  const NetCampaignSetup setup = make_net_campaign(network, options);
  return setup.campaign.run(setup.measure);
}

StreamedCampaign run_net_calibration(const sim::net::NetworkSim& network,
                                     RecordSink& sink,
                                     const NetCalibrationOptions& options) {
  const NetCampaignSetup setup = make_net_campaign(network, options);
  return setup.campaign.run(setup.measure, sink);
}

namespace {

stats::PiecewiseFit fit_op(const RawTable& table, const std::string& op,
                           const std::vector<double>& breakpoints) {
  const RawTable subset = table.filter("op", Value(op));
  if (subset.size() < 2) {
    throw std::runtime_error("analyze_net_calibration: no rows for op '" +
                             op + "'");
  }
  return stats::fit_piecewise(subset.factor_column_real("size_bytes"),
                              subset.metric_column("time_us"),
                              breakpoints);
}

}  // namespace

NetModel analyze_net_calibration(const RawTable& table,
                                 const std::vector<double>& breakpoints) {
  NetModel model;
  model.send_fit = fit_op(table, "send", breakpoints);
  model.recv_fit = fit_op(table, "recv", breakpoints);
  model.pingpong_fit = fit_op(table, "pingpong", breakpoints);

  // Derive LogGP-family parameters per segment.  The ping-pong time is
  // modeled as 2*(o_s + L + G*s + o_r); its slope gives 2*(G + per-byte
  // overheads) and its intercept 2*(o_s0 + L + o_r0).
  for (std::size_t s = 0; s < model.pingpong_fit.segments.size(); ++s) {
    const auto& pp = model.pingpong_fit.segments[s];
    const auto& snd = model.send_fit.segments[s];
    const auto& rcv = model.recv_fit.segments[s];

    SegmentParams params;
    params.lo = pp.lo == -std::numeric_limits<double>::infinity() ? 0.0 : pp.lo;
    params.hi = pp.hi;
    params.o_s_us = snd.fit.intercept;
    params.o_s_per_byte = snd.fit.slope;
    params.o_r_us = rcv.fit.intercept;
    params.o_r_per_byte = rcv.fit.slope;
    params.latency_us =
        pp.fit.intercept / 2.0 - params.o_s_us - params.o_r_us;
    params.gap_per_byte_us =
        pp.fit.slope / 2.0 - params.o_s_per_byte - params.o_r_per_byte;
    params.bandwidth_mbps = params.gap_per_byte_us > 0.0
                                ? 1.0 / params.gap_per_byte_us
                                : 0.0;
    model.segments.push_back(params);
  }
  return model;
}

}  // namespace cal::benchlib
