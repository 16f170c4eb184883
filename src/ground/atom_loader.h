#ifndef TUFFY_GROUND_ATOM_LOADER_H_
#define TUFFY_GROUND_ATOM_LOADER_H_

#include <string>

#include "mln/model.h"
#include "ra/catalog.h"
#include "util/status.h"

namespace tuffy {

/// Name of the relation enumerating the domain of `type`.
std::string DomainTableName(const std::string& type);

/// Loads the MLN's type domains into the relational engine (Section
/// 3.1): one single-column table `_dom_<type>` enumerating the type's
/// constants, ANALYZEd so the optimizer has statistics. A type gets a
/// table only when some rule's binding query scans it, i.e. a universal
/// variable of that type that no binding literal binds
/// (DomainScannedVars); no plan reads any other type's domain as a
/// relation.
///
/// The evidence is not loaded here: binding literals scan EvidenceDb's
/// relations in place (EvidenceDb::rows), so `evidence` is unused and
/// kept only so existing callers stay source-compatible.
Status LoadMlnTables(const MlnProgram& program, const EvidenceDb& evidence,
                     Catalog* catalog);

}  // namespace tuffy

#endif  // TUFFY_GROUND_ATOM_LOADER_H_
