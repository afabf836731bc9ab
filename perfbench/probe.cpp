/// \file probe.cpp
/// \brief The benchmark's traced probe, linked against the domset library.
///
///   perfbench_probe mutlog --graph ba --n 300000 --m 3 --seed 7
///                          --mutations 12000 --batch 8 --bias hub --out m.log
///       writes the mutation stream `domset load` would send for this
///       graph and seed (same generator, same mirror, a commit every
///       --batch), so the churn can be timed per commit and replayed.
///       Prints `digest <graph digest>` on stdout.
///
///   perfbench_probe trace --graph file --path g.dcsr --seed 7 --k 3
///                         --threads 4 --text g.txt --text-threads 4
///                         --dcsr g.dcsr
///                         --repeats 3 --log m.log --commits 300
///                         --churn-k 2 --churn-threads 1 --frontier-cap 32
///                         --spans-out spans.tsv
///       calls each layer's public functions with a span around every
///       call (name, start, end, parent), keeps the spans in memory and
///       writes them, with counters and output digests, at exit.  The
///       build-solve-verify path also runs untraced, paired with each
///       traced repeat, to price the tracing.  The harness (run.py)
///       turns all of it into the per-layer metrics.  Every flag shown is
///       required where the command uses it; the values live in run.py.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/graphs.hpp"
#include "api/registry.hpp"
#include "api/result_json.hpp"
#include "api/solver.hpp"
#include "common/rng.hpp"
#include "core/alg3.hpp"
#include "core/rounding.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/incremental.hpp"
#include "dyn/mutation.hpp"
#include "dyn/workload.hpp"
#include "exec/context.hpp"
#include "graph/csr_file.hpp"
#include "graph/io.hpp"
#include "serve/epoch_store.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "verify/verify.hpp"

namespace {

using namespace domset;
using clock_type = std::chrono::steady_clock;

/// In-memory span log.  Spans nest through a stack, so each records the
/// span open when it began as its parent.  Single-threaded by design:
/// spans sit around calls into the library, never inside it.
class span_log {
 public:
  span_log() { spans_.reserve(1 << 16); }

  /// Opens a span for its lifetime.
  class scope {
   public:
    scope(span_log& log, const char* name) : log_(log), id_(log.open(name)) {}
    ~scope() { log_.close(id_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    span_log& log_;
    std::size_t id_;
  };

  void count(const std::string& name, double value) {
    counts_.emplace_back(name, value);
  }
  void info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  /// Writes every record as one tab-separated line:
  ///   span <id> <parent|-1> <name> <start_ns> <end_ns>
  ///   count <name> <value>
  ///   info <key> <value>
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      out << "span\t" << i << '\t' << s.parent << '\t' << s.name << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
    char buf[64];
    for (const auto& [name, value] : counts_) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out << "count\t" << name << '\t' << buf << '\n';
    }
    for (const auto& [key, value] : info_)
      out << "info\t" << key << '\t' << value << '\n';
    out.flush();
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  struct span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long parent;
  };

  std::size_t open(const char* name) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now() - t0_)
        .count();
  }

  clock_type::time_point t0_ = clock_type::now();
  std::vector<span> spans_;
  std::vector<std::size_t> stack_;
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// `--key value` pairs; every key must be one the command knows.
class args {
 public:
  args(int argc, char** argv, std::initializer_list<const char*> known) {
    for (int i = 2; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
        throw std::invalid_argument("expected --key value, got '" + flag + "'");
      const std::string key = flag.substr(2);
      bool ok = false;
      for (const char* k : known) ok = ok || key == k;
      if (!ok) throw std::invalid_argument("unknown flag '" + flag + "'");
      values_[key] = argv[i + 1];
    }
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback.empty())
      throw std::invalid_argument("missing flag '--" + key + "'");
    return fallback;
  }
  [[nodiscard]] std::uint64_t num(const std::string& key,
                                  const std::string& fallback = "") const {
    return std::stoull(get(key, fallback));
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The graph exactly as `domset run/serve --graph ...` builds it.
graph::graph build_graph(const args& a) {
  api::param_map params;
  for (const char* key : {"m", "path", "parse-threads"})
    if (a.has(key)) params.set(key, a.get(key));
  return api::make_graph(a.get("graph"), a.num("n", "1000"), a.num("seed"),
                         params);
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

int cmd_mutlog(const args& a) {
  const graph::graph base = build_graph(a);
  const std::size_t total = a.num("mutations");
  const std::size_t batch = a.num("batch");
  if (batch == 0) throw std::invalid_argument("--batch must be > 0");
  // The mutator of serve::run_load: draw against the committed mirror,
  // apply, and seal the mirror's epoch every `batch` mutations.
  dyn::dynamic_graph mirror(base);
  dyn::workload_params wp;
  wp.bias = dyn::parse_workload_bias(a.get("bias"));
  wp.seed = a.num("seed");
  dyn::workload gen(wp);
  std::ofstream out(a.get("out"), std::ios::trunc);
  out << "# perfbench mutation stream (seed " << wp.seed << ", bias "
      << dyn::to_string(wp.bias) << ", batch " << batch << ")\n";
  for (std::size_t i = 0; i < total; ++i) {
    const dyn::mutation m = gen.next(mirror, mirror.rebase_point());
    mirror.apply(m);
    out << dyn::to_string(m) << '\n';
    if ((i + 1) % batch == 0) (void)mirror.commit();
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + a.get("out"));
  std::printf("digest %s\n", graph::graph_digest_hex(base).c_str());
  return 0;
}

/// Benchmark-owned engine program: every node broadcasts an 8-bit value
/// for a fixed number of rounds -- the communication shape of the
/// paper's algorithms, with no algorithm work on top.
struct broadcast_probe {
  std::uint32_t rounds_left = 0;
  std::uint64_t acc = 0;

  void on_round(sim::round_context& ctx, std::span<const sim::message> inbox) {
    for (const sim::message& m : inbox) acc += m.payload;
    if (rounds_left == 0) return;
    --rounds_left;
    ctx.broadcast(0, (acc + ctx.id()) & 0xffU, 8);
  }
  [[nodiscard]] bool finished() const { return rounds_left == 0; }
};

constexpr std::uint32_t probe_rounds = 16;

/// Runs `fn` inside a span named `name`, or bare when `log` is null.
template <typename Fn>
auto maybe_traced(span_log* log, const char* name, Fn&& fn) {
  std::optional<span_log::scope> s;
  if (log != nullptr) s.emplace(*log, name);
  return fn();
}

struct solved {
  graph::graph g;
  api::solve_result res;
};

/// The cold `domset run` path: build, solve through the registry, verify.
/// Traced into `log`, or untraced when `log` is null.
solved solve_path(const args& a, const api::solver& pipeline,
                  const exec::context& ex, const api::param_map& params,
                  span_log* log) {
  std::optional<span_log::scope> path;
  if (log != nullptr) path.emplace(*log, "solve_path");
  solved out;
  out.g = maybe_traced(log, "graph.build", [&] { return build_graph(a); });
  out.res = maybe_traced(log, "api.solve",
                         [&] { return pipeline.solve(out.g, ex, params); });
  const bool valid = maybe_traced(log, "verify.check", [&] {
    return verify::is_dominating_set(out.g, out.res.in_set);
  });
  if (!valid) throw std::runtime_error("pipeline set is not dominating");
  return out;
}

void trace_solve(const args& a, span_log& log) {
  const std::size_t repeats = a.num("repeats");
  exec::context ex;
  ex.seed = a.num("seed");
  ex.threads = a.num("threads");
  const std::uint32_t k = static_cast<std::uint32_t>(a.num("k"));
  api::param_map solver_params;
  solver_params.set("k", std::to_string(k));
  const api::solver& pipeline =
      api::solver_registry::instance().find("pipeline");
  const graph::parse_options parse_opts{
      .threads = static_cast<std::size_t>(a.num("text-threads"))};

  std::string digest;
  std::vector<std::uint8_t> in_set;
  std::string graph_digest;
  // Untimed: the process's first solve pays for cold pages and caches.
  (void)solve_path(a, pipeline, ex, solver_params, nullptr);
  for (std::size_t r = 0; r < repeats; ++r) {
    // The solve path twice, untraced and traced, in alternating order so
    // neither always runs second, on a heap the other has grown; both
    // results live to the end of the repeat.  The difference of the pair
    // is the tracing overhead.
    std::optional<solved> traced, untraced;
    double untraced_ms = 0.0;
    for (const bool with_spans : {r % 2 == 1, r % 2 == 0}) {
      if (with_spans) {
        traced.emplace(solve_path(a, pipeline, ex, solver_params, &log));
        continue;
      }
      const clock_type::time_point t0 = clock_type::now();
      untraced.emplace(solve_path(a, pipeline, ex, solver_params, nullptr));
      untraced_ms = std::chrono::duration<double, std::milli>(
                        clock_type::now() - t0)
                        .count();
    }
    log.count("untraced.solve_path_ms", untraced_ms);
    const graph::graph& g = traced->g;
    const api::solve_result& res = traced->res;
    if (api::digest_hex(res) != api::digest_hex(untraced->res))
      throw std::runtime_error("traced and untraced sets differ");
    if (r == 0) {
      digest = api::digest_hex(res);
      in_set = res.in_set;
      graph_digest = graph::graph_digest_hex(g);
      log.info("solve.digest", digest);
      log.info("graph.digest", graph_digest);
    } else if (api::digest_hex(res) != digest) {
      throw std::runtime_error("pipeline digest changed between repeats");
    }

    {
      graph::graph parsed;
      {
        span_log::scope s(log, "graph.parse");
        parsed = graph::read_edge_list_file(a.get("text"), parse_opts);
      }
      graph::graph loaded;
      {
        span_log::scope s(log, "graph.load");
        loaded = graph::load_csr(a.get("dcsr"));
      }
      if (graph::graph_digest_hex(parsed) != graph_digest ||
          graph::graph_digest_hex(loaded) != graph_digest)
        throw std::runtime_error("probe fixtures differ from the solved graph");
    }

    // The two pipeline stages, called as core::compute_dominating_set
    // calls them: one shared pool, rounding seeded seed + 1.  The pool is
    // built outside the spans; api.solve pays for it.
    exec::context cx = ex;
    cx.ensure_shared_pool();
    core::lp_approx_params lp_params;
    lp_params.k = k;
    lp_params.exec = cx;
    core::lp_approx_result lp;
    {
      span_log::scope s(log, "core.lp");
      lp = core::approximate_lp(g, lp_params);
    }
    core::rounding_params r_params;
    r_params.exec = cx.with_seed(cx.seed + 1);
    core::rounding_result rounded;
    {
      span_log::scope s(log, "core.rounding");
      rounded = core::round_to_dominating_set(g, lp.x, r_params);
    }
    if (rounded.in_set != in_set)
      throw std::runtime_error("stage-by-stage set differs from the pipeline");
    if (r == 0) {
      log.count("core.lp_rounds", static_cast<double>(lp.metrics.rounds));
      log.count("core.rounding_rounds",
                static_cast<double>(rounded.metrics.rounds));
      log.count("core.lp_messages",
                static_cast<double>(lp.metrics.messages_sent));
      log.count("core.rounding_messages",
                static_cast<double>(rounded.metrics.messages_sent));
      log.count("core.lp_objective", lp.objective);
    }

    std::optional<sim::typed_engine<broadcast_probe>> engine;
    {
      span_log::scope s(log, "sim.setup");
      engine.emplace(g, cx.engine_config());
      engine->load([](graph::node_id) {
        return broadcast_probe{.rounds_left = probe_rounds};
      });
    }
    sim::run_metrics m;
    {
      span_log::scope s(log, "sim.run");
      m = engine->run();
    }
    if (r == 0) log.count("sim.rounds", static_cast<double>(m.rounds));
  }
}

void trace_churn(const args& a, span_log& log) {
  const std::size_t batch = a.num("batch");
  const std::size_t commits = a.num("commits");
  std::vector<dyn::mutation> stream = dyn::load_mutation_log(a.get("log"));
  if (stream.size() < commits * batch)
    throw std::runtime_error("mutation log shorter than --commits batches");
  stream.resize(commits * batch);

  // The server's incremental engine, configured as `domset serve` is.
  dyn::incremental_params ip;
  ip.solver = "pipeline";
  ip.solver_params.set("k", a.get("churn-k"));
  ip.exec.seed = a.num("seed");
  ip.exec.threads = a.num("churn-threads");
  ip.frontier_cap = static_cast<std::uint32_t>(a.num("frontier-cap"));

  const graph::graph base = build_graph(a);
  std::optional<dyn::incremental_engine> engine;
  {
    span_log::scope s(log, "dyn.initial_solve");
    engine.emplace(base, ip);
  }
  serve::epoch_store store;

  // One commit window, step for step as serve::server::commit_locked and
  // publish_locked run it (solution/size/digest copies count as publish).
  const auto publish = [&] {
    serve::epoch_state state;
    state.epoch = engine->epoch();
    {
      span_log::scope s(log, "dyn.snapshot");
      state.snapshot = engine->snapshot();
    }
    bool valid = false;
    {
      span_log::scope s(log, "verify.epoch");
      valid = verify::is_dominating_set(state.snapshot, engine->solution());
    }
    if (!valid)
      throw std::runtime_error("epoch " + std::to_string(state.epoch) +
                               " failed verification");
    span_log::scope s(log, "serve.publish");
    state.solution = engine->solution();
    state.size = engine->size();
    state.digest = engine->digest();
    store.publish(std::move(state));
  };
  {
    span_log::scope s(log, "epoch0_publish");
    publish();
  }
  for (std::size_t c = 0; c < commits; ++c) {
    for (std::size_t i = c * batch; i < (c + 1) * batch; ++i) {
      span_log::scope s(log, "dyn.apply");
      engine->network().apply(stream[i]);
    }
    span_log::scope window(log, "commit");
    dyn::epoch_report rep;
    {
      span_log::scope s(log, "dyn.repair");
      rep = engine->commit_and_repair();
    }
    publish();
    log.count("dyn.ball_nodes", static_cast<double>(rep.ball_nodes));
    log.count("dyn.capped_nodes", static_cast<double>(rep.capped_nodes));
    log.count("dyn.interior_nodes", static_cast<double>(rep.interior_nodes));
    log.count("dyn.holes_patched", static_cast<double>(rep.holes_patched));
    log.count("dyn.full_resolves", rep.full_resolve ? 1.0 : 0.0);
    log.count("dyn.changed", static_cast<double>(rep.changed));
  }
  log.info("churn.final_digest", hex64(engine->digest()));
  log.info("churn.final_epoch", std::to_string(engine->epoch()));

  // Epoch pinning, batched: one pin costs about as much as a clock read.
  constexpr std::size_t pins = 200000;
  std::size_t sink = 0;
  {
    span_log::scope s(log, "serve.pin_batch");
    for (std::size_t i = 0; i < pins; ++i) sink += store.pin()->size;
  }
  log.count("serve.pin_calls", static_cast<double>(pins));
  if (sink == 0) throw std::runtime_error("pinned epochs are empty");

  // The request handler of `domset serve`, in process (no socket).
  serve::server_params sp;
  sp.inc = ip;
  std::optional<serve::server> server;
  {
    span_log::scope s(log, "serve.server_setup");
    server.emplace(base, sp);
  }
  common::rng rng(ip.exec.seed);
  std::size_t line_no = 0;
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::string line =
        "query member " + std::to_string(rng.next_below(base.node_count()));
    std::string resp;
    {
      span_log::scope s(log, "serve.handle_member");
      resp = server->handle_line(line, ++line_no);
    }
    if (resp.rfind("ok", 0) != 0) throw std::runtime_error(resp);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    std::string resp;
    {
      span_log::scope s(log, "serve.handle_set");
      resp = server->handle_line("query set", ++line_no);
    }
    if (resp.rfind("ok", 0) != 0) throw std::runtime_error(resp.substr(0, 200));
  }
}

int cmd_trace(const args& a) {
  span_log log;
  int status = 0;
  try {
    trace_solve(a, log);
    if (a.has("log")) trace_churn(a, log);
    // The cost of tracing itself: empty spans, timed as one batch.
    span_log::scope batch(log, "trace.empty_batch");
    for (std::size_t i = 0; i < 10000; ++i)
      span_log::scope empty(log, "trace.empty");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    log.info("error", e.what());
    status = 1;
  }
  log.write(a.get("spans-out"));
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_probe mutlog|trace --key value...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "mutlog") {
      std::initializer_list<const char*> keys = {
          "graph", "n", "seed", "m", "path", "parse-threads",
          "mutations", "batch", "bias", "out"};
      return cmd_mutlog(args(argc, argv, keys));
    }
    if (command == "trace") {
      std::initializer_list<const char*> keys = {
          "graph", "n", "seed", "m", "path", "parse-threads",
          "k", "threads", "text", "text-threads", "dcsr", "repeats", "log",
          "commits", "batch", "churn-k", "churn-threads", "frontier-cap",
          "spans-out"};
      return cmd_trace(args(argc, argv, keys));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "perfbench_probe: unknown command '%s'\n",
               command.c_str());
  return 2;
}
