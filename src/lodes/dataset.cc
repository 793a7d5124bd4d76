#include "lodes/dataset.h"

#include <unordered_set>

#include "table/partitioned_group_by.h"

namespace eep::lodes {

namespace {

/// The first Workplace row of every distinct (place, naics, ownership).
Result<table::Table> BuildWorkplaceFrame(const table::Table& workplaces) {
  EEP_ASSIGN_OR_RETURN(
      table::GroupKeyCodec codec,
      table::GroupKeyCodec::Create(workplaces.schema(),
                                   {kColPlace, kColNaics, kColOwnership}));
  const std::vector<uint64_t> keys =
      table::MaterializeGroupKeys(workplaces, codec, /*num_threads=*/1);
  std::vector<bool> seen(codec.DomainSize());
  std::vector<bool> first(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    first[i] = !seen[keys[i]];
    seen[keys[i]] = true;
  }
  return workplaces.Filter(first);
}

}  // namespace

Result<LodesDataset> LodesDataset::Create(AttributeDomains domains,
                                          table::Table workers,
                                          table::Table workplaces,
                                          table::Table jobs) {
  // Every worker holds exactly one job (paper, Section 3.1).
  EEP_ASSIGN_OR_RETURN(const table::Column* jw,
                       jobs.ColumnByName(kColWorkerId));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* job_workers, jw->AsInt64());
  std::unordered_set<int64_t> seen;
  seen.reserve(job_workers->size());
  for (int64_t w : *job_workers) {
    if (!seen.insert(w).second) {
      return Status::InvalidArgument("worker " + std::to_string(w) +
                                     " holds more than one job");
    }
  }

  // Job ⋈ Worker ⋈ Workplace. HashJoin is an inner join with unique right
  // keys, so a row-count drop means a dangling foreign key.
  EEP_ASSIGN_OR_RETURN(
      table::Table with_worker,
      table::Table::HashJoin(jobs, kColWorkerId, workers, kColWorkerId));
  if (with_worker.num_rows() != jobs.num_rows()) {
    return Status::InvalidArgument("job references missing worker");
  }
  EEP_ASSIGN_OR_RETURN(table::Table worker_full,
                       table::Table::HashJoin(with_worker, kColEstabId,
                                              workplaces, kColEstabId));
  if (worker_full.num_rows() != jobs.num_rows()) {
    return Status::InvalidArgument("job references missing workplace");
  }

  EEP_ASSIGN_OR_RETURN(table::Table workplace_frame,
                       BuildWorkplaceFrame(workplaces));
  return LodesDataset(std::move(domains), std::move(workers),
                      std::move(workplaces), std::move(jobs),
                      std::move(worker_full), std::move(workplace_frame));
}

Result<int64_t> LodesDataset::PlacePopulation(uint32_t place_code) const {
  if (place_code >= domains_.places().size()) {
    return Status::OutOfRange("place code out of range");
  }
  return domains_.places()[place_code].population;
}

Result<graph::BipartiteGraph> LodesDataset::BuildGraph() const {
  EEP_ASSIGN_OR_RETURN(const table::Column* wcol,
                       jobs_.ColumnByName(kColWorkerId));
  EEP_ASSIGN_OR_RETURN(const table::Column* ecol,
                       jobs_.ColumnByName(kColEstabId));
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* ws, wcol->AsInt64());
  EEP_ASSIGN_OR_RETURN(const std::vector<int64_t>* es, ecol->AsInt64());
  std::vector<graph::Edge> edges;
  edges.reserve(ws->size());
  for (size_t i = 0; i < ws->size(); ++i) {
    edges.push_back({(*ws)[i], (*es)[i]});
  }
  return graph::BipartiteGraph::Create(std::move(edges));
}

}  // namespace eep::lodes
