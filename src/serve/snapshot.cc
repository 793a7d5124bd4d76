#include "serve/snapshot.h"

#include <algorithm>
#include <cstdlib>

namespace eep::serve {
namespace {

/// Released counts are decimal numerals (integers when the release
/// rounded, %.17g doubles otherwise). Rank order must be numeric — the
/// lexicographic string order would put "9" above "10".
double ParseCount(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

}  // namespace

Result<ServedTable> ServedTable::Build(store::TableData data) {
  if (data.header.size() < 2) {
    return Status::InvalidArgument(
        "served table '" + data.name +
        "' needs at least one attribute column plus the value column");
  }
  for (const auto& row : data.rows) {
    if (row.size() != data.header.size()) {
      return Status::InvalidArgument("served table '" + data.name +
                                     "' has a row arity mismatch");
    }
  }
  ServedTable table;
  table.data_ = std::move(data);

  const size_t n = table.data_.rows.size();
  table.by_key_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    table.by_key_[i] = static_cast<uint32_t>(i);
  }
  table.by_rank_ = table.by_key_;
  std::sort(table.by_key_.begin(), table.by_key_.end(),
            [&table](uint32_t a, uint32_t b) { return table.RowKeyLess(a, b); });
  // Parse each count once up front; parsing inside the comparator would
  // run two strtod calls per comparison.
  std::vector<double> counts(n);
  for (size_t i = 0; i < n; ++i) {
    counts[i] = ParseCount(table.data_.rows[i].back());
  }
  std::sort(table.by_rank_.begin(), table.by_rank_.end(),
            [&table, &counts](uint32_t a, uint32_t b) {
              if (counts[a] != counts[b]) return counts[a] > counts[b];
              return table.RowKeyLess(a, b);
            });
  return table;
}

bool ServedTable::RowKeyLess(uint32_t a, uint32_t b) const {
  const std::vector<std::string>& ra = data_.rows[a];
  const std::vector<std::string>& rb = data_.rows[b];
  const size_t attrs = data_.header.size() - 1;
  for (size_t c = 0; c < attrs; ++c) {
    const int cmp = ra[c].compare(rb[c]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

std::vector<std::string> ServedTable::AttrColumns() const {
  return std::vector<std::string>(data_.header.begin(),
                                  data_.header.end() - 1);
}

Result<std::string> ServedTable::Lookup(
    const std::vector<std::string>& key) const {
  const size_t attrs = data_.header.size() - 1;
  if (key.size() != attrs) {
    return Status::InvalidArgument(
        "lookup key has " + std::to_string(key.size()) + " values, table '" +
        data_.name + "' has " + std::to_string(attrs) + " attribute columns");
  }
  // Binary search over the key-sorted index: key-vs-row comparison, same
  // column order as RowKeyLess.
  const auto key_less_row = [&](const std::vector<std::string>& k,
                                uint32_t row) {
    const std::vector<std::string>& r = data_.rows[row];
    for (size_t c = 0; c < attrs; ++c) {
      const int cmp = k[c].compare(r[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  const auto row_less_key = [&](uint32_t row,
                                const std::vector<std::string>& k) {
    const std::vector<std::string>& r = data_.rows[row];
    for (size_t c = 0; c < attrs; ++c) {
      const int cmp = r[c].compare(k[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  auto it = std::lower_bound(by_key_.begin(), by_key_.end(), key,
                             row_less_key);
  if (it == by_key_.end() || key_less_row(key, *it)) {
    std::string msg = "table '" + data_.name + "' has no cell [";
    for (size_t c = 0; c < key.size(); ++c) {
      if (c > 0) msg += ",";
      msg += key[c];
    }
    return Status::NotFound(msg + "]");
  }
  return data_.rows[*it].back();
}

Result<std::string> ServedTable::LookupCell(
    const std::map<std::string, std::string>& values) const {
  const size_t attrs = data_.header.size() - 1;
  if (values.size() != attrs) {
    return Status::InvalidArgument(
        "expected exactly one value per attribute column of table '" +
        data_.name + "'");
  }
  std::vector<std::string> key;
  key.reserve(attrs);
  for (size_t c = 0; c < attrs; ++c) {
    auto it = values.find(data_.header[c]);
    if (it == values.end()) {
      return Status::InvalidArgument("no value for attribute column '" +
                                     data_.header[c] + "' of table '" +
                                     data_.name + "'");
    }
    key.push_back(it->second);
  }
  return Lookup(key);
}

std::vector<RankedCell> ServedTable::TopK(size_t k) const {
  const size_t n = std::min(k, by_rank_.size());
  std::vector<RankedCell> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<std::string>& row = data_.rows[by_rank_[i]];
    RankedCell cell;
    cell.attrs.assign(row.begin(), row.end() - 1);
    cell.count = row.back();
    out.push_back(std::move(cell));
  }
  return out;
}

Result<Snapshot> Snapshot::Load(const store::Store& store, uint64_t epoch) {
  EEP_ASSIGN_OR_RETURN(const store::EpochInfo* info, store.GetEpoch(epoch));
  Snapshot snapshot;
  snapshot.epoch_ = epoch;
  snapshot.fingerprint_ = info->fingerprint;
  snapshot.tables_.reserve(info->tables.size());
  for (const store::TableMeta& meta : info->tables) {
    EEP_ASSIGN_OR_RETURN(store::TableData data,
                         store.ReadTable(epoch, meta.name));
    EEP_ASSIGN_OR_RETURN(ServedTable table, ServedTable::Build(std::move(data)));
    snapshot.tables_.push_back(std::move(table));
  }
  return snapshot;
}

Result<const ServedTable*> Snapshot::Find(const std::string& name) const {
  for (const ServedTable& table : tables_) {
    if (table.name() == name) return &table;
  }
  if (epoch_ == 0) {
    return Status::NotFound("no epoch is loaded yet (empty snapshot)");
  }
  return Status::NotFound("epoch " + std::to_string(epoch_) +
                          " has no table '" + name + "'");
}

}  // namespace eep::serve
