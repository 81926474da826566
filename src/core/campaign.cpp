#include "core/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/stream_sink.hpp"

namespace cal {

const char* to_string(ArchiveFormat format) noexcept {
  return format == ArchiveFormat::kBbx ? "bbx" : "csv";
}

std::optional<ArchiveFormat> parse_archive_format(const std::string& text) {
  if (text == "csv") return ArchiveFormat::kCsv;
  if (text == "bbx") return ArchiveFormat::kBbx;
  return std::nullopt;
}

namespace {

io::archive::BbxWriterOptions bbx_options(const ArchiveOptions& archive) {
  io::archive::BbxWriterOptions options;
  options.shards = archive.shards;
  options.block_records = archive.block_records;
  return options;
}

/// Removes the *other* format's raw results from `dir` before archiving
/// into it, so read_dir's auto-detection can never resurrect a stale
/// archive after the bundle was rewritten in the other format.
void remove_stale_results(const std::string& dir, ArchiveFormat format) {
  namespace fs = std::filesystem;
  if (format == ArchiveFormat::kBbx) {
    fs::remove(dir + "/results.csv");
  } else {
    fs::remove(dir + "/" + std::string(io::archive::Manifest::file_name()));
    for (std::size_t s = 0; fs::remove(
             dir + "/" + io::archive::Manifest::shard_file_name(s));
         ++s) {
    }
  }
}

}  // namespace

void CampaignResult::write_dir(const std::string& dir,
                               const ArchiveOptions& archive) const {
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/plan.csv");
    if (!out) throw std::runtime_error("Campaign: cannot write plan.csv");
    plan.write_csv(out);
  }
  remove_stale_results(dir, archive.format);
  if (archive.format == ArchiveFormat::kCsv) {
    std::ofstream out(dir + "/results.csv");
    if (!out) throw std::runtime_error("Campaign: cannot write results.csv");
    table.write_csv(out);
  } else {
    io::archive::BbxWriter writer(dir, bbx_options(archive));
    writer.begin(table.factor_names(), table.metric_names(), table.size());
    for (const auto& [key, value] : metadata.entries()) {
      writer.add_manifest_extra(key, value);
    }
    // Feed block-sized copies so peak extra memory is one block, not a
    // second full table (the table itself stays usable).
    const auto& records = table.records();
    for (std::size_t i = 0; i < records.size();
         i += archive.block_records) {
      const std::size_t end =
          std::min(records.size(), i + archive.block_records);
      writer.consume(std::vector<RawRecord>(records.begin() + i,
                                            records.begin() + end));
    }
    writer.close();
  }
  {
    std::ofstream out(dir + "/metadata.txt");
    if (!out) throw std::runtime_error("Campaign: cannot write metadata.txt");
    metadata.write(out);
  }
}

CampaignResult CampaignResult::read_dir(const std::string& dir) {
  const std::string plan_path = dir + "/plan.csv";
  std::ifstream plan_in(plan_path);
  if (!plan_in) {
    throw std::runtime_error("Campaign: cannot read '" + plan_path +
                             "' (is '" + dir + "' a campaign bundle?)");
  }
  Plan plan = Plan::read_csv(plan_in);

  // Results format auto-detection: a plain results.csv wins (the
  // historical layout), else a bbx manifest marks a sharded bundle.
  // When neither exists the error must name the bundle and both
  // candidates -- "cannot open file" with no path helps nobody decide
  // whether the bundle is incomplete or simply elsewhere.
  const std::string csv_path = dir + "/results.csv";
  const std::string manifest_path =
      dir + "/" + std::string(io::archive::Manifest::file_name());
  RawTable table({}, {});
  if (std::filesystem::exists(csv_path)) {
    std::ifstream results_in(csv_path);
    if (!results_in) {
      throw std::runtime_error("Campaign: cannot read '" + csv_path + "'");
    }
    table = RawTable::read_csv(results_in, plan.factors().size());
  } else if (io::archive::BbxReader::is_bundle(dir)) {
    table = io::archive::BbxReader(dir).read_all();
  } else {
    // Crash forensics before the generic error: staged `*.tmp` files are
    // the signature of a campaign that died mid-write or mid-finalize --
    // a materially different situation from "wrong directory", and one
    // bbx_fsck can often salvage.
    namespace fs = std::filesystem;
    const bool debris =
        fs::exists(csv_path + ".tmp") || fs::exists(manifest_path + ".tmp") ||
        fs::exists(dir + "/" + io::archive::Manifest::shard_file_name(0) +
                   ".tmp") ||
        fs::exists(dir + "/metadata.txt.tmp");
    if (debris) {
      throw std::runtime_error(
          "Campaign: bundle '" + dir +
          "' is incomplete (interrupted finalize left *.tmp staging "
          "files); run bbx_fsck to inspect and salvage it");
    }
    throw std::runtime_error(
        "Campaign: bundle '" + dir + "' has no raw results: neither '" +
        csv_path + "' nor '" + manifest_path +
        "' exists (incomplete campaign, or the wrong directory)");
  }

  std::ifstream md_in(dir + "/metadata.txt");
  if (!md_in) throw std::runtime_error("Campaign: cannot read metadata.txt");
  Metadata md = Metadata::read(md_in);

  return CampaignResult{std::move(plan), std::move(table), std::move(md)};
}

Campaign::Campaign(Plan plan, Engine engine, Metadata metadata)
    : plan_(std::move(plan)),
      engine_(std::move(engine)),
      metadata_(std::move(metadata)),
      window_stats_(std::make_shared<WindowStats>()) {
  engine_.attach_window_stats(window_stats_);
}

void Campaign::stamp_window_stats(Metadata& md) const {
  const WindowStats& ws = *window_stats_;
  if (ws.windows == 0) return;  // opaque mode / nothing ran
  md.set("window_count", static_cast<std::int64_t>(ws.windows));
  md.set("window_wall_s", ws.wall_s);
  md.set("window_wall_min_s", ws.min_window_s);
  md.set("window_wall_max_s", ws.max_window_s);
  md.set("worker_busy_s", ws.busy_s);
  md.set("worker_occupancy", ws.occupancy());
}

Metadata Campaign::finished_metadata(bool streamed) const {
  Metadata md = metadata_;
  md.set("plan_runs", static_cast<std::int64_t>(plan_.size()));
  md.set("plan_seed", static_cast<std::uint64_t>(plan_.seed()));
  md.set("engine_threads",
         static_cast<std::int64_t>(engine_.workers_for(plan_.size())));
  const Engine::Options& eopts = engine_.options();
  if (eopts.pool) md.set("worker_pool", eopts.pool->name());
  if (eopts.clock == Clock::kIndexed) {
    md.set("engine_clock", std::string("indexed"));
  }
  if (streamed) {
    md.set("record_path", std::string("streamed"));
    md.set("sink_batch",
           static_cast<std::int64_t>(engine_.options().sink_batch));
  }
  return md;
}

CampaignResult Campaign::run(const MeasureFn& measure) const {
  return run(MeasureFactory([&measure](std::size_t) { return measure; }));
}

CampaignResult Campaign::run(const MeasureFactory& factory) const {
  RawTable table = engine_.run(plan_, factory);
  Metadata md = finished_metadata(/*streamed=*/false);
  stamp_window_stats(md);
  return CampaignResult{plan_, std::move(table), std::move(md)};
}

StreamedCampaign Campaign::run(const MeasureFn& measure,
                               RecordSink& sink) const {
  return run(MeasureFactory([&measure](std::size_t) { return measure; }),
             sink);
}

StreamedCampaign Campaign::run(const MeasureFactory& factory,
                               RecordSink& sink) const {
  engine_.run(plan_, factory, sink);
  Metadata md = finished_metadata(/*streamed=*/true);
  stamp_window_stats(md);
  return StreamedCampaign{plan_, std::move(md)};
}

StreamedCampaign Campaign::run_to_dir(const MeasureFactory& factory,
                                      const std::string& dir,
                                      const ArchiveOptions& archive) const {
  std::filesystem::create_directories(dir);
  // Atomic finalize: every bundle file is staged under a `*.tmp` name and
  // renamed only after the campaign succeeded, metadata.txt last -- so an
  // interrupted campaign leaves only `.tmp` debris (and, for bbx, the
  // writer's own staged shards), never a bundle read_dir would accept.
  {
    std::ofstream out(dir + "/plan.csv.tmp");
    if (!out) throw std::runtime_error("Campaign: cannot write plan.csv");
    plan_.write_csv(out);
    out.flush();
    if (!out) throw std::runtime_error("Campaign: plan.csv write failed");
  }

  remove_stale_results(dir, archive.format);
  std::optional<StreamedCampaign> streamed;
  if (archive.format == ArchiveFormat::kCsv) {
    io::CsvStreamSink sink(dir + "/results.csv.tmp");
    streamed = run(factory, sink);
    std::filesystem::rename(dir + "/results.csv.tmp", dir + "/results.csv");
  } else {
    io::archive::BbxWriter sink(dir, bbx_options(archive));
    // The engine close()s the sink inside run(), after which manifest
    // extras are frozen -- so stamp the (run-independent) campaign
    // metadata into the manifest up front.
    const Metadata stamped = finished_metadata(true);
    for (const auto& [key, value] : stamped.entries()) {
      sink.add_manifest_extra(key, value);
    }
    streamed = run(factory, sink);
  }
  streamed->metadata.set("archive_format",
                         std::string(to_string(archive.format)));
  if (archive.format == ArchiveFormat::kBbx) {
    streamed->metadata.set("archive_shards",
                           static_cast<std::int64_t>(archive.shards));
  }

  {
    std::ofstream out(dir + "/metadata.txt.tmp");
    if (!out) throw std::runtime_error("Campaign: cannot write metadata.txt");
    streamed->metadata.write(out);
    out.flush();
    if (!out) throw std::runtime_error("Campaign: metadata.txt write failed");
  }
  std::filesystem::rename(dir + "/plan.csv.tmp", dir + "/plan.csv");
  std::filesystem::rename(dir + "/metadata.txt.tmp", dir + "/metadata.txt");
  return *std::move(streamed);
}

StreamedCampaign Campaign::run_partition_to_dir(
    const MeasureFactory& factory, const std::string& dir,
    const PlanPartition& partition, const ArchiveOptions& archive) const {
  if (archive.format != ArchiveFormat::kBbx) {
    throw std::invalid_argument(
        "Campaign: partitioned execution archives bbx partial bundles "
        "(bbx_merge has no CSV path)");
  }
  if (engine_.options().clock != Clock::kIndexed) {
    throw std::invalid_argument(
        "Campaign: partitioned execution requires Engine Options::clock == "
        "Clock::kIndexed (accumulated timestamps depend on runs outside the "
        "partition)");
  }
  if (archive.block_records == 0 ||
      partition.first_run % archive.block_records != 0) {
    throw std::invalid_argument(
        "Campaign: partition first_run " +
        std::to_string(partition.first_run) +
        " is not a multiple of block_records " +
        std::to_string(archive.block_records) +
        " (partition with partition_plan)");
  }
  if (partition.first_run > plan_.size() ||
      partition.run_count > plan_.size() - partition.first_run) {
    throw std::out_of_range("Campaign: partition exceeds the plan's " +
                            std::to_string(plan_.size()) + " runs");
  }

  std::filesystem::create_directories(dir);
  io::archive::BbxWriterOptions options = bbx_options(archive);
  options.first_block = partition.first_run / archive.block_records;
  io::archive::BbxWriter sink(dir, options);

  Metadata stamped = finished_metadata(/*streamed=*/true);
  stamped.set("partition_index", static_cast<std::int64_t>(partition.index));
  stamped.set("partition_parts", static_cast<std::int64_t>(partition.parts));
  stamped.set("partition_first_run",
              static_cast<std::int64_t>(partition.first_run));
  stamped.set("partition_run_count",
              static_cast<std::int64_t>(partition.run_count));
  for (const auto& [key, value] : stamped.entries()) {
    sink.add_manifest_extra(key, value);
  }
  engine_.run_range(plan_, factory, sink, partition.first_run,
                    partition.run_count);
  // The manifest extras froze when run_range close()d the sink; the
  // returned metadata still carries this partition's telemetry.
  stamp_window_stats(stamped);
  return StreamedCampaign{plan_, std::move(stamped)};
}

}  // namespace cal
