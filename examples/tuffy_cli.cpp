// tuffy_cli: command-line MLN inference and weight learning, in the
// spirit of the original Tuffy release. Reads a program (.mln) and
// evidence (.db) file — or generates a built-in synthetic dataset — and
// runs MAP inference, marginal inference, or weight learning.
//
// Usage:
//   tuffy_cli -i prog.mln -e evidence.db -q query_pred [options]
//   tuffy_cli -gen rc -learnwt
//
// Options:
//   -i FILE        MLN program file
//   -e FILE        evidence file
//   -gen NAME      generate a tiny built-in dataset instead of -i/-e:
//                  rc, ie, lp, or er (default query predicate implied)
//   -q PRED        query predicate to report / learn (repeatable)
//   -o FILE        write results to FILE instead of stdout
//   -marginal      marginal inference (MC-SAT) instead of MAP
//   -session       open a long-lived serving session instead of a batch
//                  run, then read REPL commands from stdin. The REPL is
//                  the same under -session, -connect and -follow; its
//                  command table is in docs/SERVING.md ("tuffy_cli
//                  REPL").
//   -learnwt       learn clause weights from the evidence: the -q
//                  predicates become training labels, the rest stays
//                  conditioning evidence
//   -algo A        learning algorithm: vp (voted perceptron, default)
//                  or dn (diagonal Newton)
//   -epochs N      learning epochs (default 60)
//   -lr X          learning rate (default 0.5)
//   -flips N       WalkSAT flip budget (default 1000000)
//   -explain       print EXPLAIN ANALYZE of every grounding query to
//                  stderr (per-operator rows / chunks / wall time)
//   -threads N     worker threads (default 1; also parallelizes
//                  per-rule grounding)
//   -budget BYTES  memory budget for search state (default unlimited)
//   -mode M        search mode: component (default), memory, partition,
//                  disk
//   -topdown       use the Alchemy-style top-down grounder
//   -seed N        RNG seed (default 42)
//   -wal_dir DIR   (-session) durable session: log every delta to a WAL
//                  in DIR and snapshot session state there. If DIR
//                  already holds a session, it is recovered instead of
//                  opened fresh. See docs/DURABILITY.md.
//   -snapshot_every N  (-session) snapshot after every N effective
//                  deltas (default 0: initial snapshot only)
//   -no_fsync      (-session) skip per-delta WAL fsync (faster; a crash
//                  may lose the OS write-back window)
//   -serve PORT    expose sessions over TCP (src/net/): start the
//                  poll-based server on PORT (0 = ephemeral, the chosen
//                  port is printed), block until SIGINT, then dump the
//                  serving metrics report plus the Prometheus-style
//                  registry text to stderr. SIGUSR1 dumps the registry
//                  text without stopping (a poor man's scrape; see
//                  docs/OBSERVABILITY.md). Fatal signals dump the
//                  flight recorder — to stderr, and to
//                  <wal_dir>/flight_recorder.txt when durable. Served
//                  sessions take the options a -session takes (-flips,
//                  -seed, -marginal, -snapshot_every, ...); -wal_dir is
//                  their durability root (one directory per session),
//                  -threads the worker count, and -budget bounds their
//                  summed resident bytes.
//   -connect HOST:PORT
//                  drive a remote -serve process instead of an
//                  in-process session: the same REPL, each command sent
//                  as one wire request. The local program (-i/-gen, for
//                  atom names and the fingerprint check) must match the
//                  server's.
//   -follow HOST:PORT
//                  run as a hot standby of the durable primary at
//                  HOST:PORT (docs/DURABILITY.md, "Replication &
//                  failover"): subscribe to its session "cli", apply
//                  its shipped WAL records into a local replica rooted
//                  at -wal_dir (required), print "replicated to N"
//                  progress on stderr, and reconnect with backoff when
//                  the primary goes quiet. The same REPL reads the
//                  replica, plus `status` and `promote` (operator
//                  failover: seals the local WAL and makes apply work
//                  locally). Combine with -serve PORT to also front the
//                  replica over TCP (deltas are refused with a
//                  retryable not-primary error until promotion).
//   -crash_at SPEC arm a fault point before running, e.g.
//                  'wal.append.mid_record=crash@2' (see
//                  util/fault_points.h). The process _Exit()s with
//                  code 43 when a crash fault fires.
//
// Examples:
//   ./build/examples/tuffy_cli -i prog.mln -e facts.db -q cat
//   ./build/examples/tuffy_cli -gen rc -learnwt -algo dn -epochs 30
//   ./build/examples/tuffy_cli -gen rc -serve 7777
//   ./build/examples/tuffy_cli -gen rc -connect 127.0.0.1:7777

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "durability/snapshot.h"
#include "exec/tuffy_engine.h"
#include "mln/io.h"
#include "net/client.h"
#include "net/replies.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/follower_manager.h"
#include "util/fault_points.h"
#include "util/string_util.h"

using namespace tuffy;  // NOLINT: example brevity

namespace {

struct CliArgs {
  std::string program_file;
  std::string evidence_file;
  std::string gen_dataset;
  std::vector<std::string> query_preds;
  std::string output_file;
  bool marginal = false;
  bool learn = false;
  bool session = false;
  bool explain = false;
  bool serve = false;
  uint16_t serve_port = 0;
  std::string connect;  // "host:port"; empty = no -connect
  std::string follow;   // "host:port"; empty = no -follow
  std::string crash_at;  // fault-point spec to arm at startup
  EngineOptions engine;
  LearnOptions learnwt;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (-i prog.mln -e evidence.db | -gen rc|ie|lp|er) "
               "-q query_pred [-o out] [-marginal] [-session] [-explain] "
               "[-learnwt] "
               "[-algo vp|dn] [-epochs N] [-lr X] [-flips N] [-threads N] "
               "[-budget BYTES] [-mode component|memory|partition|disk] "
               "[-topdown] [-seed N] [-wal_dir DIR] [-snapshot_every N] "
               "[-no_fsync] [-serve PORT] [-connect HOST:PORT] "
               "[-follow HOST:PORT] [-crash_at SPEC]\n",
               argv0);
  return 2;
}

/// Tiny versions of the datagen workloads, sized so exhaustive
/// grounding (which learning requires) stays sub-second.
Result<Dataset> GenerateDataset(const std::string& name) {
  if (name == "rc") {
    RcParams p;
    p.num_clusters = 4;
    p.papers_per_cluster = 6;
    p.num_categories = 3;
    p.authors_per_cluster = 3;
    p.citations_per_paper = 2;
    p.labeled_fraction = 0.6;
    return MakeRcDataset(p);
  }
  if (name == "ie") {
    IeParams p;
    p.num_citations = 20;
    p.positions_per_citation = 3;
    p.num_fields = 3;
    p.vocabulary = 15;
    p.num_token_rules = 20;
    return MakeIeDataset(p);
  }
  if (name == "lp") {
    LpParams p;
    p.num_professors = 4;
    p.num_students = 12;
    p.num_courses = 6;
    p.num_publications = 20;
    return MakeLpDataset(p);
  }
  if (name == "er") {
    ErParams p;
    p.num_records = 12;
    p.num_entities = 4;
    return MakeErDataset(p);
  }
  return Status::InvalidArgument("unknown -gen dataset: " + name);
}

/// The natural training target of each built-in dataset.
const char* DefaultQueryPred(const std::string& name) {
  if (name == "rc") return "cat";
  if (name == "ie") return "infield";
  if (name == "lp") return "advisedBy";
  if (name == "er") return "sameBib";
  return "";
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // The value of a flag that takes one; a missing value fails the parse.
    bool missing = false;
    auto v = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      missing = true;
      return "";
    };
    if (a == "-i") {
      args->program_file = v();
    } else if (a == "-e") {
      args->evidence_file = v();
    } else if (a == "-q") {
      args->query_preds.push_back(v());
    } else if (a == "-o") {
      args->output_file = v();
    } else if (a == "-gen") {
      args->gen_dataset = v();
    } else if (a == "-marginal") {
      args->marginal = true;
      args->engine.task = InferenceTask::kMarginal;
    } else if (a == "-session") {
      args->session = true;
    } else if (a == "-explain") {
      args->explain = true;
      args->engine.optimizer.analyze = true;
    } else if (a == "-learnwt") {
      args->learn = true;
    } else if (a == "-algo") {
      std::string algo = v();
      if (algo == "vp") {
        args->learnwt.algorithm = LearnAlgorithm::kVotedPerceptron;
      } else if (algo == "dn") {
        args->learnwt.algorithm = LearnAlgorithm::kDiagonalNewton;
      } else {
        return false;
      }
    } else if (a == "-epochs") {
      args->learnwt.max_epochs = std::atoi(v());
    } else if (a == "-lr") {
      args->learnwt.learning_rate = std::atof(v());
    } else if (a == "-flips") {
      args->engine.total_flips = std::strtoull(v(), nullptr, 10);
    } else if (a == "-threads") {
      args->engine.num_threads = std::atoi(v());
    } else if (a == "-budget") {
      args->engine.memory_budget_bytes = std::strtoull(v(), nullptr, 10);
    } else if (a == "-mode") {
      std::string mode = v();
      if (mode == "component") {
        args->engine.search_mode = SearchMode::kComponentAware;
      } else if (mode == "memory") {
        args->engine.search_mode = SearchMode::kInMemory;
      } else if (mode == "partition") {
        args->engine.search_mode = SearchMode::kPartitionAware;
      } else if (mode == "disk") {
        args->engine.search_mode = SearchMode::kDisk;
      } else {
        return false;
      }
    } else if (a == "-wal_dir") {
      args->engine.wal_dir = v();
    } else if (a == "-snapshot_every") {
      args->engine.snapshot_every =
          static_cast<uint32_t>(std::strtoul(v(), nullptr, 10));
    } else if (a == "-no_fsync") {
      args->engine.wal_fsync = false;
    } else if (a == "-serve") {
      args->serve = true;
      args->serve_port = static_cast<uint16_t>(std::strtoul(v(), nullptr, 10));
    } else if (a == "-connect") {
      args->connect = v();
    } else if (a == "-follow") {
      args->follow = v();
    } else if (a == "-crash_at") {
      args->crash_at = v();
    } else if (a == "-topdown") {
      args->engine.grounding_mode = GroundingMode::kTopDown;
    } else if (a == "-seed") {
      args->engine.seed = std::strtoull(v(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
    if (missing) return false;
  }
  if (!args->gen_dataset.empty()) {
    if (args->query_preds.empty()) {
      const char* pred = DefaultQueryPred(args->gen_dataset);
      if (pred[0] == '\0') return false;  // unknown dataset: usage
      args->query_preds.push_back(pred);
    }
    return true;
  }
  if (args->serve || !args->connect.empty() || !args->follow.empty()) {
    // The wire modes need the program (atom names, fingerprint check);
    // -serve also needs evidence for the sessions' base state, while a
    // -connect client or -follow replica never touches evidence locally
    // (a follower's base state arrives as a shipped snapshot).
    if (!args->follow.empty()) {
      return !args->program_file.empty() && !args->engine.wal_dir.empty();
    }
    return !args->program_file.empty() &&
           (!args->serve || !args->evidence_file.empty());
  }
  return !args->program_file.empty() && !args->evidence_file.empty() &&
         !args->query_preds.empty();
}

/// Writes `out` to -o (if given) or stdout. Returns the process status.
int EmitOutput(const CliArgs& args, const std::string& out) {
  if (args.output_file.empty()) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  Status write = WriteStringToFile(args.output_file, out);
  if (!write.ok()) {
    std::fprintf(stderr, "%s\n", write.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunLearn(const CliArgs& args, const MlnProgram& program,
             const EvidenceDb& evidence) {
  LearnOptions lopts = args.learnwt;
  lopts.query_predicates = args.query_preds;
  lopts.seed = args.engine.seed;
  TuffyEngine engine(program, evidence, args.engine);
  auto result = engine.Learn(lopts);
  if (!result.ok()) {
    std::fprintf(stderr, "learning failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const LearnResult& lr = result.value();
  std::fprintf(stderr,
               "learnwt: %zu atoms, %zu ground clauses, %d epochs "
               "(%s), %.3fs\n",
               lr.num_atoms, lr.num_ground_clauses, lr.epochs,
               lr.converged ? "converged" : "budget exhausted", lr.seconds);
  std::string out;
  for (size_t r = 0; r < lr.weights.size(); ++r) {
    const Clause& rule = program.clauses()[r];
    out += StrFormat("rule %zu: %s%g -> %g  (n_data=%lld, E[n]=%.2f)\n", r,
                     rule.hard ? "hard " : "", lr.initial_weights[r],
                     lr.weights[r],
                     static_cast<long long>(lr.data_counts[r]),
                     r < lr.expected_counts.size() ? lr.expected_counts[r]
                                                   : 0.0);
  }
  return EmitOutput(args, out);
}

// ---------------------------------------------------------------- REPL

/// The session every REPL mode drives (and -follow replicates).
constexpr const char* kReplSession = "cli";

/// Parses "pred(arg1, arg2, ...)" against the program's symbol table.
bool ParseAtomSpec(const MlnProgram& program, const std::string& spec,
                   GroundAtom* atom) {
  size_t open = spec.find('(');
  size_t close = spec.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    std::fprintf(stderr, "bad atom syntax: %s\n", spec.c_str());
    return false;
  }
  auto pid = program.FindPredicate(spec.substr(0, open));
  if (!pid.ok()) {
    std::fprintf(stderr, "unknown predicate in: %s\n", spec.c_str());
    return false;
  }
  atom->pred = pid.value();
  atom->args.clear();
  std::string args = spec.substr(open + 1, close - open - 1);
  size_t pos = 0;
  while (pos <= args.size()) {
    size_t comma = args.find(',', pos);
    std::string tok = args.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    // Trim blanks and optional quotes.
    size_t b = tok.find_first_not_of(" \t\"");
    size_t e = tok.find_last_not_of(" \t\"");
    if (b == std::string::npos) break;
    tok = tok.substr(b, e - b + 1);
    ConstantId c = program.symbols().Find(tok);
    if (c < 0) {
      std::fprintf(stderr,
                   "unknown constant %s (sessions serve the loaded "
                   "universe; see docs/SERVING.md)\n",
                   tok.c_str());
      return false;
    }
    atom->args.push_back(c);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  const Predicate& pred = program.predicate(atom->pred);
  if (atom->args.size() != static_cast<size_t>(pred.arity())) {
    std::fprintf(stderr, "%s expects %d arguments\n", pred.name.c_str(),
                 pred.arity());
    return false;
  }
  return true;
}

/// Handles "assert pred(...) [true|false]" / "retract pred(...)".
/// Anything after the closing paren must be a recognized truth flag —
/// silently dropping a typo like "False" would stage the opposite of
/// what the user meant.
void StageEdit(const MlnProgram& program, const std::string& cmd,
               const std::string& rest, EvidenceDelta* staged) {
  size_t close = rest.rfind(')');
  std::string spec =
      close == std::string::npos ? rest : rest.substr(0, close + 1);
  std::string suffix =
      close == std::string::npos ? "" : rest.substr(close + 1);
  size_t b = suffix.find_first_not_of(" \t");
  size_t e = suffix.find_last_not_of(" \t");
  suffix = b == std::string::npos ? "" : suffix.substr(b, e - b + 1);
  bool truth = true;
  if (cmd == "retract") {
    if (!suffix.empty()) {
      std::fprintf(stderr, "retract takes no flag, got '%s'\n",
                   suffix.c_str());
      return;
    }
  } else if (suffix == "false") {
    truth = false;
  } else if (!suffix.empty() && suffix != "true") {
    std::fprintf(stderr, "expected 'true' or 'false', got '%s'\n",
                 suffix.c_str());
    return;
  }
  GroundAtom atom;
  if (!ParseAtomSpec(program, spec, &atom)) return;
  if (cmd == "assert") {
    staged->Assert(std::move(atom), truth);
  } else {
    staged->Retract(std::move(atom));
  }
  std::fprintf(stderr, "staged (%zu assertions, %zu retractions)\n",
               staged->assertions.size(), staged->retractions.size());
}

/// Prints one reply: answers (atoms, marginals, metrics) to stdout,
/// status lines to stderr.
void PrintReply(const MlnProgram& program, const std::string& cmd,
                const NetRequest& req, const NetResponse& r) {
  switch (r.type) {
    case MsgType::kError:
      std::fprintf(stderr, "%s: %s%s: %s\n", cmd.c_str(),
                   WireErrorName(r.error), r.retryable ? " (retryable)" : "",
                   r.message.c_str());
      break;
    case MsgType::kOpenReply:
      std::fprintf(stderr,
                   "%s session '%s': %llu atoms, %llu clauses, "
                   "%llu components, cost %.2f\n",
                   r.attached ? "re-attached to" : "opened",
                   req.session.c_str(), (unsigned long long)r.num_atoms,
                   (unsigned long long)r.num_clauses,
                   (unsigned long long)r.num_components, r.map_cost);
      break;
    case MsgType::kDeltaReply:
      std::fprintf(stderr,
                   "%s: cost %.4f, seq %llu, %llu/%llu components "
                   "re-searched, %llu flips\n",
                   r.no_op ? "no-op" : "applied", r.map_cost,
                   (unsigned long long)r.seq,
                   (unsigned long long)r.components_dirty,
                   (unsigned long long)r.components_total,
                   (unsigned long long)r.flips);
      break;
    case MsgType::kMapReply:
      if (req.predicate.empty()) {
        std::fprintf(stderr, "map cost: %.4f\n", r.map_cost);
      }
      for (const GroundAtom& atom : r.atoms) {
        std::printf("%s\n", AtomStore::AtomName(program, atom).c_str());
      }
      break;
    case MsgType::kMarginalsReply:
      for (const auto& [atom, p] : r.marginals) {
        std::printf("%.4f\t%s\n", p,
                    AtomStore::AtomName(program, atom).c_str());
      }
      break;
    case MsgType::kRecoverReply:
      std::fprintf(stderr,
                   "recovered: snapshot %llu (%zu tried), %llu/%llu records "
                   "replayed (%llu from snapshot), %llu bytes scanned, "
                   "%llu torn tail bytes truncated\n"
                   "map cost after recovery: %.4f\n",
                   (unsigned long long)r.recovery.snapshot_seq,
                   r.recovery.snapshots_tried,
                   (unsigned long long)r.recovery.records_replayed,
                   (unsigned long long)r.recovery.wal_records_total,
                   (unsigned long long)r.recovery.records_skipped,
                   (unsigned long long)r.recovery.bytes_scanned,
                   (unsigned long long)r.recovery.truncated_bytes, r.map_cost);
      break;
    case MsgType::kStatsReply:
      for (const auto& [key, value] : r.stats) {
        std::fprintf(stderr, "%s = %g\n", key.c_str(), value);
      }
      break;
    case MsgType::kMetricsReply:
      std::fputs(r.message.c_str(), stdout);
      break;
    case MsgType::kTraceReply:
      std::fputs(r.message.c_str(), stderr);
      break;
    default:
      break;
  }
  std::fflush(stdout);
}

/// Where the REPL's requests go: a wire Client (-connect), the REPL's own
/// session (-session), or a hot standby (-follow). A non-OK Result means
/// the backend itself is gone — a lost connection, a failed in-place
/// recovery — and ends the REPL; a kError reply is an answer like any
/// other.
using Backend = std::function<Result<NetResponse>(const NetRequest&)>;

/// The one REPL of -session, -connect and -follow. assert/retract stage
/// an edit locally; every other command becomes one request to
/// `backend`, and PrintReply prints the reply. `mode_command` sees each
/// command first and returns true for the mode-specific ones it handled
/// (-follow's status/promote). With `open`, the REPL starts by opening
/// or re-attaching to the session.
int RunRepl(const MlnProgram& program, const Backend& backend, bool open,
            const std::function<bool(const std::string&)>& mode_command =
                nullptr) {
  auto send = [&](const std::string& cmd, const NetRequest& req) {
    Result<NetResponse> r = backend(req);
    if (r.ok()) {
      PrintReply(program, cmd, req, r.value());
    } else {
      std::fprintf(stderr, "%s failed: %s\n", cmd.c_str(),
                   r.status().ToString().c_str());
    }
    return r;
  };
  if (open) {
    NetRequest req;
    req.type = MsgType::kOpenSession;
    req.session = kReplSession;
    req.program_fp = ProgramFingerprint(program);
    auto r = send("open", req);
    if (!r.ok() || r.value().type != MsgType::kOpenReply) return 1;
  }
  // The request each command sends (docs/SERVING.md, "tuffy_cli REPL").
  static const std::map<std::string, MsgType> kRequests = {
      {"apply", MsgType::kApplyDelta}, {"cost", MsgType::kQueryMap},
      {"query", MsgType::kQueryMap},   {"marginals", MsgType::kQueryMarginals},
      {"stats", MsgType::kStats},      {"recover", MsgType::kRecover},
      {"metrics", MsgType::kMetrics},  {"trace", MsgType::kTrace},
  };
  EvidenceDelta staged;
  std::string line;
  std::fprintf(stderr, "> ");
  while (std::getline(std::cin, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    size_t sp = line.find(' ');
    std::string cmd = line.substr(0, sp);
    std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
    auto request = kRequests.find(cmd);
    if (cmd.empty() || (mode_command && mode_command(cmd))) {
    } else if (cmd == "assert" || cmd == "retract") {
      StageEdit(program, cmd, rest, &staged);
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (request != kRequests.end()) {
      NetRequest req;
      req.type = request->second;
      req.session = kReplSession;
      if (cmd == "query" || cmd == "marginals") req.predicate = rest;
      if (req.type == MsgType::kApplyDelta) req.delta = staged;
      auto r = send(cmd, req);
      if (!r.ok()) return 1;
      // A delta refused with a retryable error (overload, a replica not
      // yet promoted) stays staged for the next apply.
      if (req.type == MsgType::kApplyDelta && !r.value().retryable) {
        staged = EvidenceDelta{};
      }
    } else {
      std::fprintf(stderr,
                   "commands: assert A [false] | retract A | apply | cost "
                   "| query P | marginals P | stats | recover | metrics "
                   "| trace | quit; -follow adds status | promote\n");
    }
    std::fprintf(stderr, "> ");
  }
  return 0;
}

/// Splits the HOST:PORT of -connect and -follow; false (after saying
/// why) when it is malformed.
bool ParseHostPort(const char* flag, const std::string& addr,
                   std::string* host, uint16_t* port) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 == addr.size()) {
    std::fprintf(stderr, "%s expects HOST:PORT, got '%s'\n", flag,
                 addr.c_str());
    return false;
  }
  *host = addr.substr(0, colon);
  *port = static_cast<uint16_t>(
      std::strtoul(addr.c_str() + colon + 1, nullptr, 10));
  return true;
}

/// -session: the REPL over an in-process session, opened through the
/// engine — or recovered, when -wal_dir already holds one.
int RunSession(const CliArgs& args, const MlnProgram& program,
               const EvidenceDb& evidence) {
  TuffyEngine engine(program, evidence, args.engine);
  auto opened = engine.OpenSession();
  if (!opened.ok() && opened.status().code() == StatusCode::kAlreadyExists) {
    RecoveryStats rs;
    opened = engine.RecoverSession(&rs);
    if (opened.ok()) {
      PrintReply(program, "recover", NetRequest{},
                 RecoverReply(*opened.value(), rs));
    }
  }
  if (!opened.ok()) {
    std::fprintf(stderr, "session open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<InferenceSession> sess = opened.TakeValue();
  auto local = [&](const NetRequest& req) -> Result<NetResponse> {
    switch (req.type) {
      case MsgType::kApplyDelta: {
        TraceBuilder trace(req.session);
        return DeltaReply(sess->ApplyDelta(req.delta, &trace));
      }
      case MsgType::kRecover: {
        if (args.engine.wal_dir.empty()) {
          return ErrorReply(Status::InvalidArgument("recover needs -wal_dir"));
        }
        // Drop the resident state on the floor — the WAL is the record —
        // and rebuild from disk, exactly as a restarted process would.
        sess.reset();
        RecoveryStats rs;
        TUFFY_ASSIGN_OR_RETURN(sess, engine.RecoverSession(&rs));
        return RecoverReply(*sess, rs);
      }
      case MsgType::kMetrics:
        return MetricsReply();
      default:
        return ReadReply(program, *sess, req);
    }
  };
  return RunRepl(program, local, /*open=*/true);
}

// ------------------------------------------------------ -serve/-connect

std::atomic<bool> g_shutdown{false};
std::atomic<bool> g_dump_metrics{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }
void HandleDumpSignal(int) { g_dump_metrics.store(true); }

/// Serves the loaded program + evidence over TCP until SIGINT/SIGTERM,
/// then dumps the metrics report to stderr (the CI smoke greps it).
/// SIGUSR1 dumps the registry text mid-flight; the handlers only set
/// flags, the dump itself runs on this thread (RenderText allocates and
/// locks, so it must stay out of signal context).
int RunServe(const CliArgs& args, const MlnProgram& program,
             const EvidenceDb& evidence) {
  InstallFlightRecorderCrashHandlers();
  if (!args.engine.wal_dir.empty()) {
    FlightRecorder::Global().SetDumpPath(
        (args.engine.wal_dir + "/flight_recorder.txt").c_str());
  }
  ServerOptions opts;
  opts.port = args.serve_port;
  opts.num_workers = args.engine.num_threads > 1 ? args.engine.num_threads : 2;
  opts.session = TranslateSessionOptions(args.engine);
  opts.memory_budget_bytes = args.engine.memory_budget_bytes;
  opts.durability_root = args.engine.wal_dir;
  opts.snapshot_every = args.engine.snapshot_every;
  opts.wal_fsync = args.engine.wal_fsync;
  Server server(program, evidence, opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
    return 1;
  }
  // Port on stdout so scripts can capture it even with -serve 0.
  std::printf("serving on %s:%u\n", opts.host.c_str(), server.port());
  std::fflush(stdout);
  std::fprintf(stderr, "program fingerprint %016llx; SIGINT to stop\n",
               (unsigned long long)ProgramFingerprint(program));
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  while (!g_shutdown.load()) {
    if (g_dump_metrics.exchange(false)) {
      std::fputs(MetricsRegistry::Global().RenderText().c_str(), stderr);
      std::fflush(stderr);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fputs(server.MetricsReport().c_str(), stderr);
  std::fputs(MetricsRegistry::Global().RenderText().c_str(), stderr);
  server.Stop();
  return 0;
}

/// -connect: the REPL over a session in a remote -serve process. Every
/// request rides CallWithRetry, so retryable refusals (overload
/// shedding, a replica not yet promoted) are retried with backoff
/// instead of bouncing back to the user.
int RunConnect(const CliArgs& args, const MlnProgram& program) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort("-connect", args.connect, &host, &port)) return 2;
  Client client;
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return RunRepl(
      program, [&](const NetRequest& req) { return client.CallWithRetry(req); },
      /*open=*/true);
}

// --------------------------------------------------------------- -follow

/// Hot standby: stream the primary's WAL into a local replica, print
/// replication progress, and run the REPL over the replica — the same
/// replica path a fronting Server uses — plus the operator's `status`
/// and `promote`. With -serve PORT, the replica is also fronted over TCP
/// (queries served, deltas refused with kNotPrimary until promoted).
int RunFollow(const CliArgs& args, const MlnProgram& program,
              const EvidenceDb& evidence) {
  if (args.engine.wal_dir.empty()) {
    std::fprintf(stderr, "-follow needs -wal_dir for the local copy\n");
    return 2;
  }
  FollowerOptions fopts;
  if (!ParseHostPort("-follow", args.follow, &fopts.primary_host,
                     &fopts.primary_port)) {
    return 2;
  }
  InstallFlightRecorderCrashHandlers();
  FlightRecorder::Global().SetDumpPath(
      (args.engine.wal_dir + "/flight_recorder.txt").c_str());
  fopts.session = kReplSession;
  fopts.session_options = TranslateSessionOptions(args.engine);

  FollowerManager follower(program, fopts);
  Status started = follower.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "follow failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "following %s from position %llu\n",
               args.follow.c_str(),
               (unsigned long long)follower.position());
  ReplicaSession* replica = follower.replica();

  // Optional TCP front end over the replica.
  std::unique_ptr<Server> front;
  if (args.serve) {
    ServerOptions sopts;
    sopts.port = args.serve_port;
    sopts.replica = replica;
    sopts.replica_session = kReplSession;
    front = std::make_unique<Server>(program, evidence, sopts);
    Status fs = front->Start();
    if (!fs.ok()) {
      std::fprintf(stderr, "replica serve failed: %s\n",
                   fs.ToString().c_str());
      return 1;
    }
    std::printf("serving on %s:%u\n", sopts.host.c_str(), front->port());
    std::fflush(stdout);
  }

  // Progress monitor: one stderr line per replicated position, the
  // "replicated to N" lines scripts (and the CI failover smoke) wait on.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor([&]() {
    uint64_t reported = follower.position();
    while (!monitor_stop.load(std::memory_order_acquire)) {
      const FollowerState st = follower.state();
      const uint64_t pos = follower.position();
      if (pos != reported &&
          (st == FollowerState::kStreaming ||
           st == FollowerState::kBootstrapping)) {
        double cost = 0.0;
        {
          std::lock_guard<std::mutex> lock(replica->mu());
          InferenceSession* s = replica->session();
          if (s != nullptr) cost = s->map_cost();
        }
        std::fprintf(stderr, "replicated to %llu (cost %.4f)\n",
                     (unsigned long long)pos, cost);
        std::fflush(stderr);
        reported = pos;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  auto follow_command = [&](const std::string& cmd) {
    if (cmd == "status") {
      std::fprintf(stderr,
                   "state %s, position %llu, primary committed %llu, "
                   "reconnects %llu%s\n",
                   FollowerStateName(follower.state()),
                   (unsigned long long)follower.position(),
                   (unsigned long long)follower.primary_committed(),
                   (unsigned long long)follower.reconnects(),
                   replica->promoted() ? ", promoted" : "");
      return true;
    }
    if (cmd != "promote") return false;
    auto promoted = follower.Promote();
    if (!promoted.ok()) {
      std::fprintf(stderr, "promote failed: %s\n",
                   promoted.status().ToString().c_str());
    } else {
      std::fprintf(stderr, "promoted at %llu\n",
                   (unsigned long long)promoted.value());
      std::fflush(stderr);
    }
    return true;
  };
  auto on_replica = [&](const NetRequest& req) {
    return req.type == MsgType::kMetrics
               ? MetricsReply()
               : ReplicaReply(program, replica, kReplSession, req);
  };
  const int rc = RunRepl(program, on_replica, /*open=*/false, follow_command);
  monitor_stop.store(true, std::memory_order_release);
  monitor.join();
  if (front != nullptr) front->Stop();
  follower.Stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  MlnProgram program;
  EvidenceDb evidence;
  if (!args.gen_dataset.empty()) {
    auto ds = GenerateDataset(args.gen_dataset);
    if (!ds.ok()) {
      std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
      return 1;
    }
    program = std::move(ds.value().program);
    evidence = std::move(ds.value().evidence);
  } else {
    auto program_result = LoadProgramFile(args.program_file);
    if (!program_result.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.program_file.c_str(),
                   program_result.status().ToString().c_str());
      return 1;
    }
    program = program_result.TakeValue();
    if (!args.evidence_file.empty()) {  // -connect may go without
      Status st = LoadEvidenceFile(args.evidence_file, &program, &evidence);
      if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", args.evidence_file.c_str(),
                     st.ToString().c_str());
        return 1;
      }
    }
  }

  if (!args.crash_at.empty()) {
    Status armed = ArmFaultFromSpec(args.crash_at);
    if (!armed.ok()) {
      std::fprintf(stderr, "-crash_at: %s\n", armed.ToString().c_str());
      return 2;
    }
  }

  if (!args.follow.empty()) return RunFollow(args, program, evidence);
  if (args.serve) return RunServe(args, program, evidence);
  if (!args.connect.empty()) return RunConnect(args, program);
  if (args.learn) return RunLearn(args, program, evidence);
  if (args.session) return RunSession(args, program, evidence);

  TuffyEngine engine(program, evidence, args.engine);
  auto result = engine.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "inference failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const EngineResult& r = result.value();
  if (args.explain) std::fputs(r.explain.c_str(), stderr);
  std::fprintf(stderr,
               "grounding: %zu atoms, %zu clauses, %.3fs; search: %.3fs, "
               "%llu flips, cost %.2f, %zu components\n",
               r.grounding.atoms.num_atoms(),
               r.grounding.clauses.num_clauses(), r.grounding_seconds,
               r.search_seconds, (unsigned long long)r.flips, r.total_cost,
               r.num_components);

  std::string out;
  for (const std::string& pred_name : args.query_preds) {
    auto pid = program.FindPredicate(pred_name);
    if (!pid.ok()) {
      std::fprintf(stderr, "unknown query predicate %s\n",
                   pred_name.c_str());
      return 1;
    }
    for (AtomId a = 0; a < r.grounding.atoms.num_atoms(); ++a) {
      if (r.grounding.atoms.atom(a).pred != pid.value()) continue;
      if (args.marginal) {
        out += StrFormat("%.4f\t", r.marginals[a]);
        out += r.grounding.atoms.AtomName(program, a);
        out += "\n";
      } else if (a < r.truth.size() && r.truth[a] != 0) {
        out += r.grounding.atoms.AtomName(program, a);
        out += "\n";
      }
    }
  }
  return EmitOutput(args, out);
}
