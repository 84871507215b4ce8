#include "retrieval/retrieval.hh"

namespace cegma {

const char *
retrievalModeName(RetrievalMode mode)
{
    return mode == RetrievalMode::Cascade ? "cascade" : "exhaustive";
}

} // namespace cegma
