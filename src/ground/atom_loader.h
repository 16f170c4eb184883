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
/// 3.1): one single-column table `_dom_<type>` per type any predicate
/// uses, enumerating its constants, ANALYZEd so the optimizer has
/// statistics. These are the relations a rule's otherwise-unbound
/// universal variables range over.
///
/// The evidence is not loaded here: binding literals scan EvidenceDb's
/// relations in place (EvidenceDb::rows), so `evidence` is unused and
/// kept only so existing callers stay source-compatible.
Status LoadMlnTables(const MlnProgram& program, const EvidenceDb& evidence,
                     Catalog* catalog);

}  // namespace tuffy

#endif  // TUFFY_GROUND_ATOM_LOADER_H_
