#include "ground/atom_loader.h"

#include <unordered_set>

namespace tuffy {

std::string DomainTableName(const std::string& type) {
  return "_dom_" + type;
}

Status LoadMlnTables(const MlnProgram& program,
                     const EvidenceDb& /*evidence*/, Catalog* catalog) {
  std::unordered_set<std::string> types;
  for (const Predicate& pred : program.predicates()) {
    for (const std::string& t : pred.arg_types) types.insert(t);
  }
  for (const std::string& type : types) {
    TUFFY_ASSIGN_OR_RETURN(
        Table * t,
        catalog->CreateTable(DomainTableName(type),
                             Schema({Column{"value", ColumnType::kInt64}})));
    for (ConstantId c : program.symbols().Domain(type)) {
      t->Append({Datum(static_cast<int64_t>(c))});
    }
    t->Analyze();
  }
  return Status::OK();
}

}  // namespace tuffy
