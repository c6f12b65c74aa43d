// perfbench_op: runs one benchmark operation in this process and prints
// one JSON line with what it measured. perfbench/run.py starts a fresh
// process per operation.
//
//   perfbench_op scale|scale-traced seed=N sessions=N sectors=N threads=N
//                [arrival_window=S]
//   perfbench_op store|store-traced seed=N [rows=N]
//
// An operation that throws -- an InvariantAuditor violation included --
// prints {"ok":false,"error":...} and exits 1.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "scale_ops.hpp"
#include "store_ops.hpp"

namespace {

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto eq = arg.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("bad arg " + arg);
    kv[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return kv;
}

std::size_t take(std::map<std::string, std::string>& kv, const char* key,
                 std::size_t fallback) {
  auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  std::size_t v = std::stoull(it->second);
  kv.erase(it);
  return v;
}

perfbench::JsonLine run(const std::string& kind,
                        std::map<std::string, std::string> kv) {
  if (kind == "scale" || kind == "scale-traced") {
    perfbench::ScaleOp op;
    op.seed = take(kv, "seed", op.seed);
    op.sessions = take(kv, "sessions", op.sessions);
    op.sectors = take(kv, "sectors", op.sectors);
    op.threads = take(kv, "threads", op.threads);
    op.arrival_window =
        static_cast<double>(take(kv, "arrival_window", 0));
    if (!kv.empty()) throw std::invalid_argument("unknown key " + kv.begin()->first);
    return kind == "scale" ? perfbench::run_scale_timed(op)
                           : perfbench::run_scale_traced(op);
  }
  if (kind == "store" || kind == "store-traced") {
    perfbench::StoreOp op;
    op.seed = take(kv, "seed", op.seed);
    op.rows = take(kv, "rows", op.rows);
    if (!kv.empty()) throw std::invalid_argument("unknown key " + kv.begin()->first);
    return perfbench::run_store(op, kind == "store-traced");
  }
  throw std::invalid_argument("unknown operation " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_op scale|scale-traced|store|store-traced key=value...\n");
    return 2;
  }
  try {
    std::string line = run(argv[1], parse(argc, argv)).text();
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    perfbench::JsonLine j;
    j.flag("ok", false).str("error", e.what());
    std::printf("%s\n", j.text().c_str());
    return 1;
  }
}
