#include "ground/atom_loader.h"

#include <set>

#include "ground/bottom_up_grounder.h"

namespace tuffy {

std::string DomainTableName(const std::string& type) {
  return "_dom_" + type;
}

Status LoadMlnTables(const MlnProgram& program,
                     const EvidenceDb& /*evidence*/, Catalog* catalog) {
  std::set<std::string> types;
  for (size_t c = 0; c < program.clauses().size(); ++c) {
    const Clause& clause = program.clauses()[c];
    for (VarId v : DomainScannedVars(program, static_cast<int>(c))) {
      types.insert(clause.var_types[v]);
    }
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
