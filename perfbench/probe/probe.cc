// perfbench_probe — in-process companion of perfbench/run.py.
//
// It links the same libdlcirc the `dlcirc` binary is built from and calls
// the library's public functions directly, timing each call from outside:
//
//   perfbench_probe oracle  INSTANCE --mode fw|seminaive --in REQ.tsv
//       Reference values for every request line, computed without circuits:
//       Floyd-Warshall over the request's edge weights (src/graph) for the
//       TC programs, SemiNaiveEvaluate over the grounded program
//       (src/datalog/engine.h) for the others. Input lines are
//       `tag,tag,...<TAB>Fact<TAB>Fact...`; output lines are the formatted
//       values, tab-separated, in query order.
//   perfbench_probe compile INSTANCE --batch TAGS.csv
//       The compile pipeline stage by stage through pipeline::Session, each
//       public call timed from outside; prints one JSON object.
//   perfbench_probe serve   INSTANCE --width W --lines REQ.ndjson
//                           [--lanes LANES.tsv --updates UPD.tsv]
//       Serve-side layer costs of one workload: EvaluateBatch<Tropical> at
//       the observed batch width, serve::ParseJson over the workload's
//       request lines and IncrementalEvaluator::Update over its delta
//       stream. Prints one JSON object.
//
// INSTANCE is `--program FILE (--graph FILE | --facts FILE) --semiring NAME`.
// The probe evaluates with one worker thread, like `dlcirc run` and
// `dlcirc serve` without --threads.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/datalog/engine.h"
#include "src/eval/batch.h"
#include "src/eval/delta.h"
#include "src/graph/algorithms.h"
#include "src/pipeline/io.h"
#include "src/pipeline/planner.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/serve/wire.h"

namespace dlcirc {
namespace {

using Clock = std::chrono::steady_clock;
using pipeline::Session;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench_probe: " << what << "\n";
  std::exit(1);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& l : Split(text, '\n')) {
    if (!l.empty()) out.push_back(std::move(l));
  }
  return out;
}

struct Flags {
  std::string command, program, graph, facts, semiring, mode, in, batch, lines,
      lanes, updates;
  int width = 1;
};

Flags ParseFlags(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_probe oracle|compile|serve [flags]");
  Flags f;
  f.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die(flag + " needs a value");
    std::string v = argv[++i];
    if (flag == "--program") f.program = v;
    else if (flag == "--graph") f.graph = v;
    else if (flag == "--facts") f.facts = v;
    else if (flag == "--semiring") f.semiring = v;
    else if (flag == "--mode") f.mode = v;
    else if (flag == "--in") f.in = v;
    else if (flag == "--batch") f.batch = v;
    else if (flag == "--lines") f.lines = v;
    else if (flag == "--lanes") f.lanes = v;
    else if (flag == "--updates") f.updates = v;
    else if (flag == "--width") f.width = std::max(1, std::stoi(v));
    else Die("unknown flag " + flag);
  }
  if (f.program.empty() || f.graph.empty() == f.facts.empty() ||
      f.semiring.empty()) {
    Die("pass --program, one of --graph/--facts, and --semiring");
  }
  return f;
}

/// A Session configured like `dlcirc run`: one evaluator thread. Returns
/// the time FromDatalog + EDB load took in *load_ms.
Session OpenSession(const Flags& f, double* load_ms) {
  const std::string program = ReadFileOrDie(f.program);
  const std::string edb = ReadFileOrDie(f.graph.empty() ? f.facts : f.graph);
  pipeline::SessionOptions options;
  options.eval.num_threads = 1;
  auto t0 = Clock::now();
  Result<Session> s = Session::FromDatalog(program, options);
  if (!s.ok()) Die(s.error());
  Session session = std::move(s).value();
  Result<bool> loaded = f.graph.empty() ? session.LoadFactsText(edb)
                                        : session.LoadGraphCsv(edb);
  if (!loaded.ok()) Die(loaded.error());
  if (load_ms != nullptr) *load_ms = MsSince(t0);
  return session;
}

/// "P(c1,...,ck)" -> pred + constants.
void SplitFact(const std::string& fact, std::string* pred,
               std::vector<std::string>* constants) {
  const size_t open = fact.find('(');
  if (open == std::string::npos || fact.back() != ')') Die("bad fact " + fact);
  *pred = fact.substr(0, open);
  *constants = Split(fact.substr(open + 1, fact.size() - open - 2), ',');
}

template <Semiring S>
std::vector<typename S::Value> ParseTags(const std::string& csv) {
  std::vector<typename S::Value> out;
  for (const std::string& t : Split(csv, ',')) {
    Result<typename S::Value> v = pipeline::ParseSemiringValue<S>(t);
    if (!v.ok()) Die(v.error());
    out.push_back(v.value());
  }
  return out;
}

// ------------------------------------------------------------------ oracle

template <Semiring S>
int Oracle(const Flags& f) {
  Session session = OpenSession(f, nullptr);
  const uint32_t num_vars = session.db().num_facts();
  const bool fw = f.mode == "fw";
  if (!fw && f.mode != "seminaive") Die("--mode must be fw or seminaive");
  // Floyd-Warshall needs the graph with vertex names and the edge -> var map.
  pipeline::GraphCsv graph;
  std::map<std::string, uint32_t> vertex;
  if (fw) {
    if (f.graph.empty()) Die("--mode fw needs --graph");
    Result<pipeline::GraphCsv> g =
        pipeline::ParseGraphCsv(ReadFileOrDie(f.graph), session.program());
    if (!g.ok()) Die(g.error());
    graph = std::move(g).value();
    for (uint32_t v = 0; v < graph.vertex_names.size(); ++v) {
      vertex[graph.vertex_names[v]] = v;
    }
  }
  const GroundedProgram* grounded = fw ? nullptr : &session.grounded();
  std::string out;
  for (const std::string& line : Lines(ReadFileOrDie(f.in))) {
    std::vector<std::string> fields = Split(line, '\t');
    std::vector<typename S::Value> tags = ParseTags<S>(fields[0]);
    if (tags.size() != num_vars) Die("tagging size mismatch");
    std::vector<std::string> values;
    if constexpr (std::is_same_v<typename S::Value, uint64_t>) {
      if (fw) {
        std::vector<uint64_t> weights(graph.graph.num_edges());
        for (size_t e = 0; e < weights.size(); ++e) {
          weights[e] = tags[session.edge_vars()[e]];
        }
        auto dist = FloydWarshallDistances(graph.graph, weights);
        for (size_t q = 1; q < fields.size(); ++q) {
          std::string pred;
          std::vector<std::string> c;
          SplitFact(fields[q], &pred, &c);
          if (c.size() != 2 || c[0] == c[1]) Die("fw answers T(u,v), u != v");
          values.push_back(pipeline::FormatSemiringValue<S>(
              dist[vertex.at(c[0])][vertex.at(c[1])]));
        }
      }
    }
    if (!fw) {
      EvalResult<S> r = SemiNaiveEvaluate<S>(*grounded, tags);
      if (!r.converged) Die("semi-naive evaluation did not converge");
      for (size_t q = 1; q < fields.size(); ++q) {
        std::string pred;
        std::vector<std::string> c;
        SplitFact(fields[q], &pred, &c);
        Result<uint32_t> fact = session.FindFact(pred, c);
        if (!fact.ok()) Die(fact.error());
        values.push_back(pipeline::FormatSemiringValue<S>(
            fact.value() == Session::kNotFound ? S::Zero()
                                               : r.values[fact.value()]));
      }
    }
    if (values.size() + 1 != fields.size()) Die("oracle mode/semiring mismatch");
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? "\t" : "") + values[i];
    }
    out += "\n";
  }
  std::cout << out;
  return 0;
}

// ------------------------------------------------------------------ compile

template <Semiring S>
int Compile(const Flags& f) {
  std::map<std::string, double> ms;
  Session session = OpenSession(f, &ms["load"]);
  auto t0 = Clock::now();
  session.grounded();
  ms["ground"] = MsSince(t0);
  t0 = Clock::now();
  pipeline::RouteDecision decision =
      session.PlanConstruction(pipeline::SemiringTraits::For<S>());
  ms["plan"] = MsSince(t0);
  t0 = Clock::now();
  auto compiled =
      session.Compile(pipeline::PlanKey::For<S>(decision.construction));
  ms["compile"] = MsSince(t0);
  if (!compiled.ok()) Die(compiled.error());
  const pipeline::PhaseProfile& p = session.phase_profile();
  ms["construct"] = p.construct_ms;
  ms["passes"] = p.passes_ms;
  ms["plan_build"] = p.plan_build_ms;

  const pipeline::CompiledPlan& plan = *compiled.value();
  double est_size = 0;
  for (const pipeline::PlanCandidate& c : decision.candidates) {
    if (c.construction == decision.construction) est_size = c.est_size;
  }
  uint64_t gates_in = 0, gates_out = 0;
  if (!plan.pass_stats.empty()) {
    gates_in = plan.pass_stats.front().gates_before;
    gates_out = plan.pass_stats.back().gates_after;
  }

  Result<std::vector<std::vector<typename S::Value>>> taggings =
      pipeline::ParseTagCsv<S>(ReadFileOrDie(f.batch), session.db().num_facts());
  if (!taggings.ok()) Die(taggings.error());
  t0 = Clock::now();
  auto values = eval::EvaluateBatch<S>(session.evaluator(), plan.plan,
                                       taggings.value());
  ms["sweep"] = MsSince(t0);
  if (values.size() != taggings.value().size()) Die("sweep lost lanes");

  std::printf("{\"construction\": \"%s\", \"est_size\": %.1f, \"slots\": %zu, "
              "\"layers\": %zu, \"gates_in\": %llu, \"gates_out\": %llu",
              std::string(pipeline::ConstructionName(decision.construction)).c_str(),
              est_size, plan.plan.num_slots(), plan.plan.num_layers(),
              static_cast<unsigned long long>(gates_in),
              static_cast<unsigned long long>(gates_out));
  for (const auto& [name, v] : ms) std::printf(", \"%s_ms\": %.6f", name.c_str(), v);
  std::printf("}\n");
  return 0;
}

// ------------------------------------------------------------------ serve

/// Serve-side layer costs (see the file comment). --lanes lines are
/// `lane<TAB>tag,tag,...`; --updates lines are `lane<TAB>var=value,...`.
int Serve(const Flags& f) {
  using S = TropicalSemiring;
  using V = S::Value;
  Session session = OpenSession(f, nullptr);
  pipeline::RouteDecision decision =
      session.PlanConstruction(pipeline::SemiringTraits::For<S>());
  auto compiled =
      session.Compile(pipeline::PlanKey::For<S>(decision.construction));
  if (!compiled.ok()) Die(compiled.error());
  const eval::EvalPlan& plan = compiled.value()->plan;
  const uint32_t num_vars = session.db().num_facts();

  // Batch sweep at the observed width over deterministic weights: the median
  // of at least 3 repetitions, and of as many as fit in ~0.3 s.
  std::vector<std::vector<V>> lanes(f.width, std::vector<V>(num_vars));
  for (int b = 0; b < f.width; ++b) {
    for (uint32_t v = 0; v < num_vars; ++v) lanes[b][v] = 1 + (b * 31 + v * 7) % 100;
  }
  std::vector<double> sweep_ms;
  auto budget = Clock::now();
  while (sweep_ms.size() < 3 || (MsSince(budget) < 300 && sweep_ms.size() < 200)) {
    auto t0 = Clock::now();
    auto out = eval::EvaluateBatch<S>(session.evaluator(), plan, lanes);
    sweep_ms.push_back(MsSince(t0));
    if (out.size() != lanes.size()) Die("sweep lost lanes");
  }
  const double sweep = Median(sweep_ms);
  std::printf("{\"construction\": \"%s\", \"slots\": %zu, \"width\": %d, "
              "\"sweep_ms\": %.6f, \"sweep_ns_per_slot_lane\": %.6f",
              std::string(pipeline::ConstructionName(decision.construction)).c_str(),
              plan.num_slots(), f.width, sweep,
              sweep * 1e6 / (static_cast<double>(plan.num_slots()) * f.width));

  // Wire parse of the workload's own request lines.
  std::vector<std::string> lines = Lines(ReadFileOrDie(f.lines));
  std::vector<double> parse_us;
  parse_us.reserve(lines.size());
  for (const std::string& line : lines) {
    auto t0 = Clock::now();
    Result<serve::JsonValue> parsed = serve::ParseJson(line);
    parse_us.push_back(MsSince(t0) * 1e3);
    if (!parsed.ok()) Die(parsed.error());
  }
  std::printf(", \"parse_us\": %.6f, \"parsed_lines\": %zu", Median(parse_us),
              lines.size());

  if (!f.lanes.empty()) {
    eval::IncrementalEvaluator inc(session.evaluator(),
                                   eval::DeltaOptions::For<S>());
    std::map<std::string, eval::EvalState<S>> states;
    for (const std::string& line : Lines(ReadFileOrDie(f.lanes))) {
      std::vector<std::string> fields = Split(line, '\t');
      states.emplace(fields[0], inc.Materialize<S>(plan, ParseTags<S>(fields[1])));
    }
    std::vector<double> update_us;
    double recomputed = 0;
    size_t fallbacks = 0;
    for (const std::string& line : Lines(ReadFileOrDie(f.updates))) {
      std::vector<std::string> fields = Split(line, '\t');
      eval::TagDelta<S> delta;
      for (const std::string& kv : Split(fields[1], ',')) {
        std::vector<std::string> p = Split(kv, '=');
        delta.push_back({static_cast<uint32_t>(std::stoul(p[0])),
                         ParseTags<S>(p[1])[0]});
      }
      auto it = states.find(fields[0]);
      if (it == states.end()) Die("update names unknown lane " + fields[0]);
      auto t0 = Clock::now();
      eval::DeltaStats st = inc.Update<S>(plan, &it->second, delta);
      update_us.push_back(MsSince(t0) * 1e3);
      recomputed += static_cast<double>(st.recomputed);
      if (st.full_fallback) ++fallbacks;
    }
    const double n = std::max<size_t>(1, update_us.size());
    std::printf(", \"update_us\": %.6f, \"recomputed_mean\": %.3f, "
                "\"fallback_frac\": %.6f, \"updates\": %zu",
                Median(update_us), recomputed / n, fallbacks / n,
                update_us.size());
  }
  std::printf("}\n");
  return 0;
}

int Main(int argc, char** argv) {
  Flags f = ParseFlags(argc, argv);
  if (f.command == "serve") return Serve(f);
  int rc = 2;
  bool known = pipeline::DispatchSemiring(f.semiring, [&]<Semiring S>() {
    if (f.command == "oracle") {
      if constexpr (S::kIsIdempotent) rc = Oracle<S>(f);
      else Die("the oracle needs an idempotent semiring");
    } else if (f.command == "compile") {
      rc = Compile<S>(f);
    } else {
      Die("unknown command " + f.command);
    }
  });
  if (!known) Die("unknown semiring " + f.semiring);
  return rc;
}

}  // namespace
}  // namespace dlcirc

int main(int argc, char** argv) { return dlcirc::Main(argc, argv); }
