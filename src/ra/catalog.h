#ifndef TUFFY_RA_CATALOG_H_
#define TUFFY_RA_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "ra/table.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

/// Name → relation mapping for the embedded engine. Grounding registers
/// one domain table per type here (LoadMlnTables); the evidence is not
/// copied in — binding literals scan the evidence side tables in place.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; fails if the name exists.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Looks up a table by name.
  Result<Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  Status DropTable(const std::string& name);

  size_t num_tables() const { return tables_.size(); }

  /// Total estimated bytes across all relations (the RDBMS side of the
  /// paper's hybrid-memory accounting).
  size_t EstimateBytes() const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace tuffy

#endif  // TUFFY_RA_CATALOG_H_
