#include "datagen/datasets.h"

#include <algorithm>

#include "mln/parser.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tuffy {

namespace {

/// Adds a true evidence atom by symbol names.
Status AddEvidence(Dataset* ds, const std::string& pred_name,
                   const std::vector<std::string>& args, bool truth = true) {
  TUFFY_ASSIGN_OR_RETURN(PredicateId pid,
                         ds->program.FindPredicate(pred_name));
  const Predicate& pred = ds->program.predicate(pid);
  GroundAtom atom;
  atom.pred = pid;
  atom.args.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    atom.args.push_back(
        ds->program.symbols().Intern(args[i], pred.arg_types[i]));
  }
  ds->evidence.Add(std::move(atom), truth);
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------------- RC

Result<Dataset> MakeRcDataset(const RcParams& params) {
  Dataset ds;
  ds.name = "RC";
  Rng rng(params.seed);

  std::string mln =
      "// Relational classification, Figure 1 of the paper\n"
      "*paper(paper, url)\n"
      "*wrote(author, paper)\n"
      "*refers(paper, paper)\n"
      "cat(paper, category)\n"
      "5 cat(p, c1), cat(p, c2) => c1 = c2\n"
      "1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)\n"
      "2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n"
      "paper(p, u) => EXIST x wrote(x, p).\n"
      "-1 cat(p, \"Networking\")\n";
  TUFFY_ASSIGN_OR_RETURN(ds.program, ParseProgram(mln));

  // Category domain (the rule above already interned "Networking").
  static const char* kCatNames[] = {"Networking", "DB",     "AI",
                                    "Systems",    "Theory", "HCI",
                                    "Graphics",   "ML",     "PL"};
  std::vector<std::string> categories;
  for (int c = 0; c < params.num_categories; ++c) {
    std::string name = c < 9 ? kCatNames[c] : StrFormat("Cat%d", c);
    categories.push_back(name);
    ds.program.symbols().Intern(name, "category");
  }

  int paper_id = 0;
  int author_id = 0;
  for (int cl = 0; cl < params.num_clusters; ++cl) {
    // Cluster-local papers and authors; a dominant category with noise.
    int dominant = static_cast<int>(rng.Uniform(params.num_categories));
    std::vector<std::string> papers;
    for (int i = 0; i < params.papers_per_cluster; ++i) {
      papers.push_back(StrFormat("P%d", paper_id++));
    }
    std::vector<std::string> authors;
    for (int i = 0; i < params.authors_per_cluster; ++i) {
      authors.push_back(StrFormat("A%d", author_id++));
    }
    for (int i = 0; i < params.papers_per_cluster; ++i) {
      const std::string& p = papers[i];
      TUFFY_RETURN_IF_ERROR(
          AddEvidence(&ds, "paper", {p, StrFormat("u_%s", p.c_str())}));
      // One or two cluster authors per paper.
      int na = 1 + static_cast<int>(rng.Uniform(2));
      for (int a = 0; a < na; ++a) {
        TUFFY_RETURN_IF_ERROR(AddEvidence(
            &ds, "wrote",
            {authors[rng.Uniform(authors.size())], p}));
      }
      // Citations to earlier papers in the same cluster.
      for (int c = 0; c < params.citations_per_paper && i > 0; ++c) {
        TUFFY_RETURN_IF_ERROR(
            AddEvidence(&ds, "refers", {p, papers[rng.Uniform(i)]}));
      }
      // Label a fraction of the papers (mostly the dominant category).
      if (rng.NextDouble() < params.labeled_fraction) {
        int cat = rng.NextDouble() < 0.85
                      ? dominant
                      : static_cast<int>(rng.Uniform(params.num_categories));
        TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "cat", {p, categories[cat]}));
      }
    }
  }
  return ds;
}

// ------------------------------------------------------------------- IE

Result<Dataset> MakeIeDataset(const IeParams& params) {
  Dataset ds;
  ds.name = "IE";
  Rng rng(params.seed);

  std::string mln =
      "// Citation segmentation\n"
      "*token(word, pos, citation)\n"
      "*nextpos(pos, pos)\n"
      "infield(pos, field, citation)\n"
      "3 infield(p, f1, c), infield(p, f2, c) => f1 = f2\n"
      "0.5 infield(p1, f, c), nextpos(p1, p2) => infield(p2, f, c)\n";
  // Token-preference rules: token W at a position votes for a field.
  for (int r = 0; r < params.num_token_rules; ++r) {
    int w = static_cast<int>(rng.Uniform(params.vocabulary));
    int f = static_cast<int>(rng.Uniform(params.num_fields));
    double weight = 0.5 + rng.NextDouble() * 1.5;
    mln += StrFormat("%.3f token(\"W%d\", p, c) => infield(p, \"F%d\", c)\n",
                     weight, w, f);
  }
  TUFFY_ASSIGN_OR_RETURN(ds.program, ParseProgram(mln));

  for (int f = 0; f < params.num_fields; ++f) {
    ds.program.symbols().Intern(StrFormat("F%d", f), "field");
  }
  for (int p = 0; p < params.positions_per_citation; ++p) {
    ds.program.symbols().Intern(StrFormat("Pos%d", p), "pos");
  }
  for (int p = 0; p + 1 < params.positions_per_citation; ++p) {
    TUFFY_RETURN_IF_ERROR(AddEvidence(
        &ds, "nextpos", {StrFormat("Pos%d", p), StrFormat("Pos%d", p + 1)}));
  }
  for (int c = 0; c < params.num_citations; ++c) {
    std::string cit = StrFormat("C%d", c);
    for (int p = 0; p < params.positions_per_citation; ++p) {
      int w = static_cast<int>(rng.Uniform(params.vocabulary));
      TUFFY_RETURN_IF_ERROR(AddEvidence(
          &ds, "token", {StrFormat("W%d", w), StrFormat("Pos%d", p), cit}));
    }
  }
  return ds;
}

// ------------------------------------------------------------------- LP

Result<Dataset> MakeLpDataset(const LpParams& params) {
  Dataset ds;
  ds.name = "LP";
  Rng rng(params.seed);

  std::string mln =
      "// Link prediction: student-adviser relationships\n"
      "*professor(person)\n"
      "*student(person)\n"
      "*publication(pub, person)\n"
      "*taughtBy(course, person, term)\n"
      "*ta(course, person, term)\n"
      "*coauthor(person, person)\n"
      "advisedBy(person, person)\n"
      "1.5 publication(pb, x), publication(pb, y), professor(x), "
      "student(y) => advisedBy(y, x)\n"
      "0.8 taughtBy(c, x, t), ta(c, y, t), professor(x), student(y) "
      "=> advisedBy(y, x)\n"
      "3 advisedBy(y, x1), advisedBy(y, x2) => x1 = x2\n"
      "0.4 advisedBy(y1, x), coauthor(y1, y2), student(y2) "
      "=> advisedBy(y2, x)\n"
      "-0.5 advisedBy(y, x)\n"
      "student(y) => EXIST x advisedBy(y, x).\n";
  TUFFY_ASSIGN_OR_RETURN(ds.program, ParseProgram(mln));

  std::vector<std::string> profs, students;
  for (int i = 0; i < params.num_professors; ++i) {
    profs.push_back(StrFormat("Prof%d", i));
    TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "professor", {profs.back()}));
  }
  for (int i = 0; i < params.num_students; ++i) {
    students.push_back(StrFormat("Stud%d", i));
    TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "student", {students.back()}));
  }
  for (int i = 0; i < params.num_publications; ++i) {
    std::string pub = StrFormat("Pub%d", i);
    const std::string& prof = profs[rng.Uniform(profs.size())];
    const std::string& stud = students[rng.Uniform(students.size())];
    TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "publication", {pub, prof}));
    TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "publication", {pub, stud}));
  }
  for (int i = 0; i < params.num_courses; ++i) {
    std::string course = StrFormat("Course%d", i);
    std::string term = StrFormat("T%d", static_cast<int>(rng.Uniform(4)));
    TUFFY_RETURN_IF_ERROR(AddEvidence(
        &ds, "taughtBy", {course, profs[rng.Uniform(profs.size())], term}));
    TUFFY_RETURN_IF_ERROR(AddEvidence(
        &ds, "ta", {course, students[rng.Uniform(students.size())], term}));
  }
  // A coauthor chain across all students guarantees a single component.
  for (size_t i = 0; i + 1 < students.size(); ++i) {
    TUFFY_RETURN_IF_ERROR(
        AddEvidence(&ds, "coauthor", {students[i], students[i + 1]}));
  }
  return ds;
}

// ------------------------------------------------------------------- ER

Result<Dataset> MakeErDataset(const ErParams& params) {
  Dataset ds;
  ds.name = "ER";
  Rng rng(params.seed);

  std::string mln =
      "// Entity resolution over citation records\n"
      "*simTitle(bib, bib)\n"
      "*simAuthor(bib, bib)\n"
      "*simVenue(bib, bib)\n"
      "sameBib(bib, bib)\n"
      "2 simTitle(b1, b2) => sameBib(b1, b2)\n"
      "1.5 simAuthor(b1, b2) => sameBib(b1, b2)\n"
      "0.8 simVenue(b1, b2) => sameBib(b1, b2)\n"
      "1 sameBib(x, y), sameBib(y, z) => sameBib(x, z)\n"
      "0.5 sameBib(x, y) => sameBib(y, x)\n"
      "-0.3 sameBib(b1, b2)\n";
  TUFFY_ASSIGN_OR_RETURN(ds.program, ParseProgram(mln));

  std::vector<int> entity_of(params.num_records);
  for (int r = 0; r < params.num_records; ++r) {
    entity_of[r] = static_cast<int>(rng.Uniform(params.num_entities));
    ds.program.symbols().Intern(StrFormat("B%d", r), "bib");
  }
  for (int a = 0; a < params.num_records; ++a) {
    for (int b = 0; b < params.num_records; ++b) {
      if (a == b) continue;
      bool dup = entity_of[a] == entity_of[b];
      std::string ra = StrFormat("B%d", a), rb = StrFormat("B%d", b);
      if (dup ? rng.NextDouble() < 0.8 : rng.NextDouble() < params.noise) {
        TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "simTitle", {ra, rb}));
      }
      if (dup ? rng.NextDouble() < 0.7 : rng.NextDouble() < params.noise) {
        TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "simAuthor", {ra, rb}));
      }
      if (dup ? rng.NextDouble() < 0.5
              : rng.NextDouble() < params.noise * 2) {
        TUFFY_RETURN_IF_ERROR(AddEvidence(&ds, "simVenue", {ra, rb}));
      }
    }
  }
  return ds;
}

// ------------------------------------------------------------- Example 1

std::vector<GroundClause> MakeExample1Mrf(int num_components) {
  std::vector<GroundClause> clauses;
  clauses.reserve(3 * num_components);
  for (int i = 0; i < num_components; ++i) {
    AtomId x = static_cast<AtomId>(2 * i);
    AtomId y = static_cast<AtomId>(2 * i + 1);
    GroundClause cx;
    cx.lits = {MakeLit(x, true)};
    cx.weight = 1.0;
    clauses.push_back(std::move(cx));
    GroundClause cy;
    cy.lits = {MakeLit(y, true)};
    cy.weight = 1.0;
    clauses.push_back(std::move(cy));
    GroundClause cxy;
    cxy.lits = {MakeLit(x, true), MakeLit(y, true)};
    cxy.weight = -1.0;
    clauses.push_back(std::move(cxy));
  }
  return clauses;
}

// ---------------------------------------------------- tractable fragment

std::vector<GroundClause> MakeTractableMrf(const TractableMrfParams& params,
                                           size_t* num_atoms_out) {
  Rng rng(params.seed);
  std::vector<GroundClause> clauses;
  size_t base = 0;
  // Dyadic weights (multiples of 1/8, in [1/8, 2]): FP sums of these are
  // exact in any order, so the oracle can assert cost equality.
  auto dyadic = [&rng](bool allow_negative, double negative_prob) {
    double w = static_cast<double>(rng.UniformInt(1, 16)) / 8.0;
    if (allow_negative && rng.Bernoulli(negative_prob)) w = -w;
    return w;
  };
  for (int comp = 0; comp < params.num_components; ++comp) {
    const int k =
        static_cast<int>(rng.UniformInt(params.min_atoms, params.max_atoms));
    // Hidden satisfying assignment: every hard clause below is adjusted
    // to be satisfied by it, so no component is hard-unsatisfiable and
    // hard-unit propagation can never derive a contradiction.
    std::vector<uint8_t> hidden(k);
    for (int j = 0; j < k; ++j) hidden[j] = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<int> parent(k, -1);

    auto add_binary = [&](int u, int v) {
      GroundClause c;
      bool su = rng.Bernoulli(0.5), sv = rng.Bernoulli(0.5);
      if (rng.Bernoulli(params.hard_prob)) {
        // Keep it satisfiable: if the hidden assignment misses both
        // literals, point the second one at it.
        if ((hidden[u] != 0) != su && (hidden[v] != 0) != sv) {
          sv = hidden[v] != 0;
        }
        c.hard = true;
      } else {
        c.weight = dyadic(true, params.negative_prob);
      }
      c.lits = {MakeLit(static_cast<AtomId>(base + u), su),
                MakeLit(static_cast<AtomId>(base + v), sv)};
      clauses.push_back(std::move(c));
    };

    auto link = [&](int u, int v) {
      add_binary(u, v);
      if (rng.Bernoulli(params.extra_pair_prob)) add_binary(u, v);
    };
    if (params.max_width <= 1) {
      for (int j = 1; j < k; ++j) {
        parent[j] = static_cast<int>(rng.UniformInt(0, j - 1));
        link(parent[j], j);
      }
    } else {
      // Partial k-tree: atom j joins a random earlier clique, and the
      // clique it forms (less one random older member once it holds k)
      // is a candidate for later atoms, so every elimination of the atoms
      // in reverse has at most k neighbours.
      auto pick = [&rng](size_t size) {
        return static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(size) - 1));
      };
      std::vector<std::vector<int>> cliques{{0}};
      for (int j = 1; j < k; ++j) {
        std::vector<int> clique = cliques[pick(cliques.size())];
        const size_t anchor = pick(clique.size());
        parent[j] = clique[anchor];
        for (size_t m = 0; m < clique.size(); ++m) {
          if (m == anchor || rng.Bernoulli(0.5)) link(clique[m], j);
        }
        if (static_cast<int>(clique.size()) == params.max_width) {
          clique.erase(clique.begin() + pick(clique.size()));
        }
        clique.push_back(j);
        cliques.push_back(std::move(clique));
      }
    }
    for (int j = 0; j < k; ++j) {
      if (!rng.Bernoulli(params.unit_prob)) continue;
      GroundClause c;
      c.lits = {MakeLit(static_cast<AtomId>(base + j), rng.Bernoulli(0.5))};
      c.weight = dyadic(true, params.negative_prob);
      clauses.push_back(std::move(c));
    }
    if (k >= 3 && rng.Bernoulli(params.conditioned_prob)) {
      // Conditioned / TML-style case: a hard unit pins atom 0, and a
      // 3-literal clause whose atom-0 literal disagrees with the pinned
      // value shrinks to a binary clause over an existing tree edge.
      GroundClause unit;
      unit.lits = {MakeLit(static_cast<AtomId>(base), hidden[0] != 0)};
      unit.hard = true;
      clauses.push_back(std::move(unit));

      const int j = static_cast<int>(rng.UniformInt(1, k - 1));
      const int u = parent[j], v = j;
      GroundClause wide;
      bool su = rng.Bernoulli(0.5), sv = rng.Bernoulli(0.5);
      if (rng.Bernoulli(params.hard_prob)) {
        if ((hidden[u] != 0) != su && (hidden[v] != 0) != sv) {
          sv = hidden[v] != 0;
        }
        wide.hard = true;
      } else {
        wide.weight = dyadic(true, params.negative_prob);
      }
      wide.lits = {MakeLit(static_cast<AtomId>(base), hidden[0] == 0),
                   MakeLit(static_cast<AtomId>(base + u), su),
                   MakeLit(static_cast<AtomId>(base + v), sv)};
      clauses.push_back(std::move(wide));
    }
    base += static_cast<size_t>(k);
  }
  if (num_atoms_out != nullptr) *num_atoms_out = base;
  return clauses;
}

}  // namespace tuffy
