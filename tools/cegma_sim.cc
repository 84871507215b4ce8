/**
 * @file
 * cegma_sim — command-line front end to the simulator.
 *
 * Usage:
 *   cegma_sim [--model NAME] [--dataset NAME] [--platform NAME]
 *             [--pairs N] [--seed S] [--batch B]
 *             [--save-traces FILE | --load-traces FILE] [--csv]
 *   cegma_sim --functional [--dedup=on|off] [--memo=on|off]
 *             [--clone-search QxC] [--model NAME] [--dataset NAME]
 *             [--pairs N] [--threads T] [--csv]
 *
 * Examples:
 *   cegma_sim --model GMN-Li --dataset RD-5K --platform CEGMA
 *   cegma_sim --dataset AIDS --pairs 200 --csv        # all platforms
 *   cegma_sim --model GraphSim --dataset RD-B --save-traces rdb.trc
 *   cegma_sim --load-traces rdb.trc --platform AWB-GCN
 *   cegma_sim --functional --dataset RD-B --dedup=on --memo=on \
 *             --clone-search 4x4      # elastic wall-clock inference
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "accel/runner.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "io/trace_io.hh"
#include "obs/build_info.hh"
#include "sim/energy.hh"

using namespace cegma;

namespace {

struct Options
{
    std::optional<ModelId> model;
    std::optional<DatasetId> dataset;
    std::optional<PlatformId> platform;
    uint32_t pairs = 32;
    uint64_t seed = 7;
    uint32_t batch = 32;
    uint32_t threads = 0; // 0 = CEGMA_THREADS / hardware default
    std::string saveTraces;
    std::string loadTraces;
    bool csv = false;
    bool functional = false;
    bool dedup = false;
    bool memo = false;
    uint32_t cloneQueries = 0;    // nonzero enables clone-search pairs
    uint32_t cloneCandidates = 0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--model NAME] [--dataset NAME] "
                 "[--platform NAME]\n"
                 "          [--pairs N] [--seed S] [--batch B] "
                 "[--threads T]\n"
                 "          [--save-traces FILE | --load-traces FILE] "
                 "[--csv]\n"
                 "       %s --functional [--dedup=on|off] "
                 "[--memo=on|off]\n"
                 "          [--clone-search QxC] [--model NAME] "
                 "[--dataset NAME]\n"
                 "          [--pairs N] [--threads T] [--csv]\n"
                 "models: GMN-Li GraphSim SimGNN (default: all)\n"
                 "datasets: AIDS COLLAB GITHUB RD-B RD-5K RD-12K\n"
                 "platforms: PyG-CPU PyG-GPU HyGCN AWB-GCN CEGMA-EMF "
                 "CEGMA-CGC CEGMA (default: all)\n",
                 argv0, argv0);
    std::exit(2);
}

ModelId
parseModel(const std::string &name)
{
    for (ModelId id : allModels()) {
        if (modelConfig(id).name == name)
            return id;
    }
    fatal("unknown model '%s'", name.c_str());
}

DatasetId
parseDataset(const std::string &name)
{
    for (DatasetId id : allDatasets()) {
        if (datasetSpec(id).name == name)
            return id;
    }
    fatal("unknown dataset '%s'", name.c_str());
}

PlatformId
parsePlatform(const std::string &name)
{
    for (PlatformId id :
         {PlatformId::PygCpu, PlatformId::PygGpu, PlatformId::HyGcn,
          PlatformId::AwbGcn, PlatformId::CegmaEmf, PlatformId::CegmaCgc,
          PlatformId::Cegma}) {
        if (name == platformName(id))
            return id;
    }
    fatal("unknown platform '%s'", name.c_str());
}

/** Parse "on"/"off" (the documented toggle form). */
bool
parseToggle(const std::string &value, const char *flag, const char *argv0)
{
    if (value == "on")
        return true;
    if (value == "off")
        return false;
    std::fprintf(stderr, "%s expects on|off, got '%s'\n", flag,
                 value.c_str());
    usage(argv0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg.rfind("--dedup=", 0) == 0) {
            opts.dedup = parseToggle(arg.substr(8), "--dedup", argv[0]);
            continue;
        }
        if (arg.rfind("--memo=", 0) == 0) {
            opts.memo = parseToggle(arg.substr(7), "--memo", argv[0]);
            continue;
        }
        if (arg == "--model") {
            opts.model = parseModel(next());
        } else if (arg == "--dataset") {
            opts.dataset = parseDataset(next());
        } else if (arg == "--platform") {
            opts.platform = parsePlatform(next());
        } else if (arg == "--pairs") {
            opts.pairs = flagValue<uint32_t>("--pairs", next(), 1);
        } else if (arg == "--seed") {
            opts.seed = flagValue<uint64_t>("--seed", next());
        } else if (arg == "--batch") {
            opts.batch = flagValue<uint32_t>("--batch", next(), 1);
        } else if (arg == "--threads") {
            opts.threads =
                flagValue<uint32_t>("--threads", next(), 0, kMaxThreads);
        } else if (arg == "--save-traces") {
            opts.saveTraces = next();
        } else if (arg == "--load-traces") {
            opts.loadTraces = next();
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--functional") {
            opts.functional = true;
        } else if (arg == "--dedup") {
            opts.dedup = parseToggle(next(), "--dedup", argv[0]);
        } else if (arg == "--memo") {
            opts.memo = parseToggle(next(), "--memo", argv[0]);
        } else if (arg == "--clone-search") {
            std::string spec = next();
            size_t x = spec.find('x');
            if (x == std::string::npos)
                usage(argv[0]);
            std::string_view qc(spec);
            opts.cloneQueries = flagValue<uint32_t>(
                "--clone-search (queries)", qc.substr(0, x), 1);
            opts.cloneCandidates = flagValue<uint32_t>(
                "--clone-search (candidates)", qc.substr(x + 1), 1);
        } else if (arg == "--version") {
            std::printf("%s\n", obs::buildInfoString().c_str());
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
        }
    }
    return opts;
}

void
reportRow(TextTable &table, const std::string &model,
          const std::string &dataset, PlatformId platform,
          const SimResult &result)
{
    EnergyModel energy;
    table.addRow({model, dataset, platformName(platform),
                  std::to_string(result.pairsSimulated),
                  TextTable::fmt(result.msPerPair(GHz), 4),
                  TextTable::fmtCount(result.throughput(GHz)),
                  TextTable::fmtBytes(
                      static_cast<double>(result.dramBytes())),
                  TextTable::fmt(result.energyNj(energy) / 1e6, 3)});
}

/** Build the evaluation pairs for one dataset id per the options. */
Dataset
makeEvalDataset(DatasetId did, const Options &opts)
{
    if (opts.cloneQueries > 0) {
        return makeCloneSearchDataset(did, opts.cloneQueries,
                                      opts.cloneCandidates, opts.seed);
    }
    return makeDataset(did, opts.seed, opts.pairs);
}

/**
 * The --functional mode: wall-clock inference through the floating-
 * point models with the elastic knobs (--dedup / --memo). Scores are
 * bit-identical across knob settings; ms/pair is the measurement.
 */
int
runFunctionalMode(const Options &opts)
{
    FunctionalOptions options;
    options.dedup = opts.dedup;
    options.memo = opts.memo;
    options.modelSeed = 1234;

    std::vector<ModelId> models =
        opts.model ? std::vector<ModelId>{*opts.model} : allModels();
    std::vector<DatasetId> datasets =
        opts.dataset ? std::vector<DatasetId>{*opts.dataset}
                     : allDatasets();

    TextTable table({"model", "dataset", "pairs", "dedup", "memo",
                     "ms/pair", "pairs/s", "memo hit%", "skip%"});
    for (DatasetId did : datasets) {
        Dataset ds = makeEvalDataset(did, opts);
        for (ModelId mid : models) {
            // --clone-search sizes the pair grid itself; --pairs caps
            // only the i.i.d. test-split datasets.
            uint32_t cap = opts.cloneQueries > 0 ? 0 : opts.pairs;
            FunctionalResult result =
                runFunctional(mid, ds, options, cap);
            size_t lookups = result.memoHits + result.memoMisses;
            double hit_pct =
                lookups > 0 ? 100.0 * static_cast<double>(
                                          result.memoHits) /
                                  static_cast<double>(lookups)
                            : 0.0;
            table.addRow(
                {modelConfig(mid).name, datasetSpec(did).name,
                 std::to_string(result.scores.size()),
                 opts.dedup ? "on" : "off", opts.memo ? "on" : "off",
                 TextTable::fmt(result.msPerPair(), 4),
                 TextTable::fmtCount(result.msPerPair() > 0.0
                                         ? 1e3 / result.msPerPair()
                                         : 0.0),
                 TextTable::fmt(hit_pct, 1),
                 TextTable::fmt(100.0 * result.dedupSkipRatio(), 1)});
        }
    }
    if (opts.csv) {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opts = parseArgs(argc, argv);
    if (opts.threads != 0)
        ThreadPool::instance().setThreads(opts.threads);

    if (opts.functional)
        return runFunctionalMode(opts);

    std::vector<PlatformId> platforms;
    if (opts.platform) {
        platforms.push_back(*opts.platform);
    } else {
        platforms = {PlatformId::PygCpu,   PlatformId::PygGpu,
                     PlatformId::HyGcn,    PlatformId::AwbGcn,
                     PlatformId::CegmaEmf, PlatformId::CegmaCgc,
                     PlatformId::Cegma};
    }

    TextTable table({"model", "dataset", "platform", "pairs",
                     "ms/pair", "pairs/s", "DRAM", "energy mJ"});

    if (!opts.loadTraces.empty()) {
        TraceBundle bundle = loadTraces(opts.loadTraces);
        if (bundle.size() == 0)
            fatal("trace file '%s' holds no traces",
                  opts.loadTraces.c_str());
        std::string model =
            modelConfig(bundle.traces().front().model).name;
        for (PlatformId p : platforms) {
            reportRow(table, model, opts.loadTraces, p,
                      runPlatform(p, bundle.traces(), opts.batch));
        }
    } else {
        std::vector<ModelId> models =
            opts.model ? std::vector<ModelId>{*opts.model} : allModels();
        std::vector<DatasetId> datasets =
            opts.dataset ? std::vector<DatasetId>{*opts.dataset}
                         : allDatasets();
        for (DatasetId did : datasets) {
            Dataset ds = makeDataset(did, opts.seed, opts.pairs);
            for (ModelId mid : models) {
                auto traces = buildTraces(mid, ds, 0);
                if (!opts.saveTraces.empty())
                    saveTraces(opts.saveTraces, traces);
                for (PlatformId p : platforms) {
                    reportRow(table, modelConfig(mid).name,
                              datasetSpec(did).name, p,
                              runPlatform(p, traces, opts.batch));
                }
            }
        }
    }

    if (opts.csv) {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }
    return 0;
}
