#include "retrieval/retrieval.hh"

#include "gmn/model.hh"
#include "obs/trace.hh"

namespace cegma {

const char *
retrievalModeName(RetrievalMode mode)
{
    return mode == RetrievalMode::Cascade ? "cascade" : "exhaustive";
}

void
RetrievalIndex::build(const std::vector<Graph> &corpus,
                      const GmnModel &model, const RetrievalConfig &config)
{
    CEGMA_TRACE_SCOPE_CAT("retrievalIndex.build", "retrieval");
    config_ = config;
    tags_.build(corpus, config.tagLevel);
    coarse_.build(corpus, model, config.tagLevel, config.sketchDim);
}

std::vector<uint32_t>
RetrievalIndex::shortlist(const Graph &query, const GmnModel &model,
                          RetrievalStages *stages) const
{
    std::vector<uint32_t> survivors =
        tags_.survivors(query, config_.tagPrune);
    std::vector<uint32_t> shortlisted;
    if (config_.shortlist == 0 || survivors.size() <= config_.shortlist) {
        shortlisted = survivors; // within budget: nothing to rank
    } else {
        std::unique_ptr<CoarseScorer> scorer =
            makeCoarseScorer(query, model, coarse_.modelAware(),
                             config_.tagLevel, config_.sketchDim);
        shortlisted =
            coarse_.shortlist(*scorer, survivors, config_.shortlist);
    }
    if (stages != nullptr) {
        stages->corpus = tags_.corpusSize();
        stages->survivors = survivors.size();
        stages->shortlisted = shortlisted.size();
    }
    return shortlisted;
}

} // namespace cegma
