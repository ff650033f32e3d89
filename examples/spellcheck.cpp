// Spellcheck — nearest-neighbour word correction over a dictionary with
// LAESA, the scenario of the paper's Figure 3, grown into the sharded
// serving flow:
//
//   1. build a ShardedPrototypeStore + Laesa (4 shards, one pivot
//      table per shard, shared global pivots);
//   2. snapshot both to disk in the mmap-ready binary format
//      (64-byte-aligned sections, versioned headers);
//   3. serve the snapshot zero-copy — Map() points the arena and pivot
//      table views straight into the mapped files, so startup is
//      O(validation) instead of O(index) copying and the pages are shared
//      with every other process mapping the same snapshot (a copy-loading
//      Load() is timed alongside for contrast);
//   4. answer a batch of queries through the BatchQueryEngine's two-stage
//      pipeline: one blocked query x pivot pass shared by the whole batch
//      (duplicate queries evaluated once), then per-query elimination
//      sweeps over all shards.
//
// Usage: ./build/spellcheck [word...]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "datasets/dictionary_gen.h"
#include "datasets/perturb.h"
#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/batch_engine.h"
#include "search/laesa.h"

int main(int argc, char** argv) {
  // 1. A deterministic 3000-word synthetic dictionary (drop in the real
  //    SISAP file with cned::Dataset::LoadLines if you have it), packed
  //    into 4 shards — each an independently mmap-able arena.
  cned::DictionaryOptions opt;
  opt.word_count = 3000;
  opt.seed = 42;
  cned::Dataset dict = cned::GenerateDictionary(opt);
  const std::size_t shards = 4;
  cned::ShardedPrototypeStore store(dict.strings, shards);
  std::cout << "dictionary: " << store.size() << " words in "
            << store.shard_count() << " shards (e.g. \"" << store.view(0)
            << "\", \"" << store.view(1) << "\")\n";

  // 2. Index with Laesa: 40 max-min pivots selected globally — the
  //    same pivots a flat index would pick, so results are bit-identical
  //    to the single-store search — with one table per shard.
  auto distance = cned::MakeDistance("dC,h");
  cned::Laesa index(store, distance, /*num_pivots=*/40);
  std::cout << "sharded LAESA built (" << index.num_pivots() << " pivots, "
            << index.preprocessing_computations()
            << " preprocessing distance computations)\n";

  // 3. Snapshot prototypes + index, then serve zero-copy from the mapped
  //    snapshot. The copy-loading path is timed alongside: it reads and
  //    copies every section, while Map() validates headers and points the
  //    views into the page cache.
  const std::string store_path = "spellcheck_store.bin";
  const std::string index_path = "spellcheck_index.bin";
  store.SaveBinary(store_path);
  index.Save(index_path);
  double copy_ms = 0.0;
  {
    cned::Stopwatch copy_watch;
    cned::ShardedPrototypeStore copy_store =
        cned::ShardedPrototypeStore::LoadBinary(store_path);
    cned::Laesa copy_index =
        cned::Laesa::Load(index_path, copy_store, distance);
    (void)copy_index;
    copy_ms = copy_watch.Millis();
  }
  cned::Stopwatch map_watch;
  cned::ShardedPrototypeStore served_store =
      cned::ShardedPrototypeStore::Map(store_path);
  cned::Laesa served =
      cned::Laesa::Map(index_path, served_store, distance);
  const double map_ms = map_watch.Millis();
  std::cout << "snapshot: " << store_path << " + " << index_path
            << " -> mmap-served index with " << served.num_pivots()
            << " pivots over " << served.size() << " prototypes\n"
            << "startup: copy load " << copy_ms << " ms, zero-copy map "
            << map_ms << " ms\n\n";

  // 4. Queries: command-line words, or random 2-edit perturbations (with a
  //    repeat, as serving traffic repeats popular queries).
  std::vector<std::string> query_words;
  for (int i = 1; i < argc; ++i) query_words.emplace_back(argv[i]);
  if (query_words.empty()) {
    cned::Rng rng(7);
    query_words =
        cned::MakeQueries(dict.strings, 8, 2, cned::Alphabet::Latin(), rng);
    query_words.push_back(query_words.front());  // a popular query
  }
  cned::PrototypeStore queries(query_words);

  cned::BatchQueryEngine::Options opts;
  opts.pivot_stage = true;  // the shared blocked query x pivot pass
  cned::BatchQueryEngine engine(served, opts);
  cned::QueryStats stats;
  std::vector<cned::QueryStats> shard_stats;
  const auto results = engine.Nearest(queries, &stats, &shard_stats);

  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "  \"" << queries[i] << "\" -> \""
              << served_store.view(results[i].index)
              << "\"  (d_C,h = " << results[i].distance << ")\n";
  }

  std::cout << "\nbatch cost: " << stats.distance_computations
            << " distance computations (" << stats.pivot_computations
            << " in the shared pivot stage; exhaustive search would need "
            << queries.size() * served.size() << ")\n";
  std::cout << "per-shard sweep evaluations:";
  for (std::size_t s = 0; s < shard_stats.size(); ++s) {
    std::cout << " shard" << s << "="
              << shard_stats[s].distance_computations;
  }
  std::cout << '\n';

  std::remove(store_path.c_str());
  std::remove(index_path.c_str());
  return 0;
}
